#include "data/value.h"

namespace relcomp {

std::string Value::ToString() const {
  if (is_int()) return std::to_string(as_int());
  return std::string(sym_name());
}

}  // namespace relcomp
