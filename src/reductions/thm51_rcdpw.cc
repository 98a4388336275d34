#include "reductions/thm51_rcdpw.h"

#include <cassert>

#include "logic/gadgets.h"

namespace relcomp {

GadgetProblem BuildRcdpWeakGadget(const Qbf& qbf) {
  assert(qbf.blocks.size() == 3 && !qbf.blocks[0].forall &&
         qbf.blocks[1].forall && !qbf.blocks[2].forall &&
         "expected an \\exists\\forall\\exists formula");
  int nx = qbf.blocks[0].size;
  int ny = qbf.blocks[1].size;
  int nz = qbf.blocks[2].size;

  GadgetProblem out;
  GadgetNames names;
  GadgetNames master_names = names.WithSuffix("m");

  // Database schema: gadgets + RY(Y1..Ym) over Boolean columns.
  AddGadgetSchemas(&out.setting.schema, names);
  std::vector<Attribute> ry_attrs;
  for (int j = 0; j < ny; ++j) {
    ry_attrs.push_back(
        Attribute{"Y" + std::to_string(j), Domain::Boolean()});
  }
  out.setting.schema.AddRelation(RelationSchema("RY", std::move(ry_attrs)));

  // Master schema: gadget copies + binary empty relation.
  AddGadgetSchemas(&out.setting.master_schema, master_names);
  out.setting.master_schema.AddRelation(
      RelationSchema("Rempty2", {Attribute{"W", Domain::Infinite()},
                                 Attribute{"W2", Domain::Infinite()}}));
  out.setting.dm = Instance(out.setting.master_schema);
  FillGadgetInstance(&out.setting.dm, master_names);

  // V: gadget bounds; φi projections of RY into Rm01; φ'i "at most one row".
  out.setting.ccs = GadgetBoundCcs(names, master_names);
  for (int j = 0; j < ny; ++j) {
    std::vector<CTerm> args;
    for (int l = 0; l < ny; ++l) args.push_back(VarId{l});
    ConjunctiveQuery q({CTerm(VarId{j})}, {RelAtom{"RY", std::move(args)}});
    out.setting.ccs.emplace_back("ry_bool_" + std::to_string(j),
                                 std::move(q), master_names.r01,
                                 std::vector<int>{0});
  }
  for (int j = 0; j < ny; ++j) {
    // Two distinct RY rows differing at column j are forbidden.
    std::vector<CTerm> args1, args2;
    for (int l = 0; l < ny; ++l) args1.push_back(VarId{l});
    for (int l = 0; l < ny; ++l) args2.push_back(VarId{ny + l});
    ConjunctiveQuery q({CTerm(VarId{j}), CTerm(VarId{ny + j})},
                       {RelAtom{"RY", std::move(args1)},
                        RelAtom{"RY", std::move(args2)}},
                       {CondAtom{VarId{j}, true, VarId{ny + j}}});
    out.setting.ccs.emplace_back("ry_single_" + std::to_string(j),
                                 std::move(q), "Rempty2",
                                 std::vector<int>{0, 1});
  }

  // I: ground gadgets, RY empty.
  out.ground = Instance(out.setting.schema);
  FillGadgetInstance(&out.ground, names);

  // Q(~x) = ∃~y, ~z (QX ∧ RY(~y) ∧ QZ ∧ Qψ ∧ w = 1).
  {
    int32_t next_var = 0;
    std::vector<CTerm> x_terms, y_terms, z_terms;
    std::vector<RelAtom> atoms;
    for (int i = 0; i < nx; ++i) x_terms.push_back(VarId{next_var++});
    for (int j = 0; j < ny; ++j) y_terms.push_back(VarId{next_var++});
    for (int k = 0; k < nz; ++k) z_terms.push_back(VarId{next_var++});
    AppendBooleanGenerators(x_terms, names, &atoms);
    {
      std::vector<CTerm> args(y_terms.begin(), y_terms.end());
      atoms.push_back(RelAtom{"RY", std::move(args)});
    }
    AppendBooleanGenerators(z_terms, names, &atoms);
    std::vector<CTerm> var_terms = x_terms;
    var_terms.insert(var_terms.end(), y_terms.begin(), y_terms.end());
    var_terms.insert(var_terms.end(), z_terms.begin(), z_terms.end());
    CTerm w = AppendCnfEvaluation(qbf.matrix, var_terms, names, &next_var,
                                  &atoms);
    std::vector<CTerm> head(x_terms.begin(), x_terms.end());
    out.query = Query::Cq(ConjunctiveQuery(
        std::move(head), std::move(atoms),
        {CondAtom{w, false, Value::Int(1)}}));
  }
  return out;
}

}  // namespace relcomp
