#include "cache/persist.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string_view>

#include "util/hash.h"

namespace relcomp {
namespace cache {

namespace {

constexpr char kMagic[4] = {'R', 'C', 'C', 'S'};
constexpr uint32_t kVersion = 1;
// Magic, version, size, checksum.
constexpr size_t kHeaderBytes = 4 + 4 + 8 + 8;

// ------------------------------------------------------------- encoding --

class Writer {
 public:
  void U8(uint8_t v) { out_.push_back(static_cast<char>(v)); }
  void U32(uint32_t v) {
    for (int i = 0; i < 4; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void U64(uint64_t v) {
    for (int i = 0; i < 8; ++i) U8(static_cast<uint8_t>(v >> (8 * i)));
  }
  void I64(int64_t v) { U64(static_cast<uint64_t>(v)); }
  void Str(std::string_view s) {
    U64(s.size());
    out_.append(s);
  }

  void Val(const Value& v) {
    if (v.is_int()) {
      U8(0);
      I64(v.as_int());
    } else {
      // Symbols travel as TEXT: interner ids are first-touch-ordered and
      // mean something else (or nothing) in the restoring process.
      U8(1);
      Str(v.sym_name());
    }
  }

  void Dom(const Domain& d) {
    U8(d.is_finite() ? 1 : 0);
    if (d.is_finite()) {
      U64(d.values().size());
      for (const Value& v : d.values()) Val(v);
    }
  }

  void RelSchema(const RelationSchema& schema) {
    Str(schema.name());
    U64(schema.arity());
    for (const Attribute& attr : schema.attributes()) {
      Str(attr.name);
      Dom(attr.domain);
    }
  }

  void DbSchema(const DatabaseSchema& schema) {
    U64(schema.relations().size());
    for (const RelationSchema& rel : schema.relations()) RelSchema(rel);
  }

  void Row(const Tuple& t) {
    for (const Value& v : t) Val(v);  // arity known from the schema
  }

  void Inst(const Instance& instance) {
    DbSchema(instance.schema());
    for (const Relation& rel : instance.relations()) {
      U64(rel.size());
      for (const Tuple& row : rel.rows()) Row(row);
    }
  }

  void Mu(const Valuation& mu) {
    U64(mu.num_slots());
    for (size_t i = 0; i < mu.num_slots(); ++i) {
      std::optional<Value> bound = mu.Get(VarId{static_cast<int32_t>(i)});
      U8(bound.has_value() ? 1 : 0);
      if (bound.has_value()) Val(*bound);
    }
  }

  void Dec(const Decision& decision) {
    U32(static_cast<uint32_t>(decision.status.code()));
    Str(decision.status.message());
    U8(decision.answer ? 1 : 0);
    Str(decision.note);
    U64(decision.stats.valuations);
    U64(decision.stats.worlds);
    U64(decision.stats.extensions);
    U64(decision.stats.cc_checks);
    U64(decision.stats.query_evals);
    U8(decision.witness != nullptr ? 1 : 0);
    if (decision.witness != nullptr) {
      const CompletenessWitness& w = *decision.witness;
      Mu(w.world_valuation);
      Inst(w.world);
      Inst(w.extension);
      U64(w.answer.size());
      Row(w.answer);
      Str(w.note);
    }
  }

  std::string Take() { return std::move(out_); }

 private:
  std::string out_;
};

// ------------------------------------------------------------- decoding --

Status Torn(const char* what) {
  return Status::DataLoss(
      std::string("cache snapshot truncated while reading ") + what);
}

class Reader {
 public:
  Reader(const char* data, size_t size) : data_(data), size_(size) {}

  Status U8(uint8_t* v, const char* what) {
    if (pos_ + 1 > size_) return Torn(what);
    *v = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }
  Status U32(uint32_t* v, const char* what) {
    if (pos_ + 4 > size_) return Torn(what);
    *v = 0;
    for (int i = 0; i < 4; ++i) {
      const uint32_t byte = static_cast<uint8_t>(data_[pos_++]);
      *v |= byte << (8 * i);
    }
    return Status::OK();
  }
  Status U64(uint64_t* v, const char* what) {
    if (pos_ + 8 > size_) return Torn(what);
    *v = 0;
    for (int i = 0; i < 8; ++i) {
      const uint64_t byte = static_cast<uint8_t>(data_[pos_++]);
      *v |= byte << (8 * i);
    }
    return Status::OK();
  }
  Status Str(std::string* s, const char* what) {
    uint64_t len = 0;
    RELCOMP_RETURN_IF_ERROR(U64(&len, what));
    if (len > size_ - pos_) return Torn(what);
    s->assign(data_ + pos_, static_cast<size_t>(len));
    pos_ += static_cast<size_t>(len);
    return Status::OK();
  }

  Status Val(Value* v) {
    uint8_t kind = 0;
    RELCOMP_RETURN_IF_ERROR(U8(&kind, "value kind"));
    if (kind == 0) {
      uint64_t bits = 0;
      RELCOMP_RETURN_IF_ERROR(U64(&bits, "int value"));
      *v = Value::Int(static_cast<int64_t>(bits));
      return Status::OK();
    }
    if (kind == 1) {
      std::string name;
      RELCOMP_RETURN_IF_ERROR(Str(&name, "symbol value"));
      *v = Value::Sym(name);
      return Status::OK();
    }
    return Status::Corruption("cache snapshot: unknown value kind " +
                              std::to_string(kind));
  }

  Status Dom(Domain* d) {
    uint8_t finite = 0;
    RELCOMP_RETURN_IF_ERROR(U8(&finite, "domain kind"));
    if (finite == 0) {
      *d = Domain::Infinite();
      return Status::OK();
    }
    uint64_t count = 0;
    RELCOMP_RETURN_IF_ERROR(U64(&count, "domain size"));
    if (count > size_ - pos_) return Torn("domain values");
    std::vector<Value> values;
    values.reserve(static_cast<size_t>(count));
    for (uint64_t i = 0; i < count; ++i) {
      Value v;
      RELCOMP_RETURN_IF_ERROR(Val(&v));
      values.push_back(v);
    }
    *d = Domain::Finite(std::move(values));
    return Status::OK();
  }

  Status RelSchema(RelationSchema* schema) {
    std::string name;
    RELCOMP_RETURN_IF_ERROR(Str(&name, "relation name"));
    uint64_t arity = 0;
    RELCOMP_RETURN_IF_ERROR(U64(&arity, "relation arity"));
    if (arity > size_ - pos_) return Torn("relation attributes");
    std::vector<Attribute> attributes;
    attributes.reserve(static_cast<size_t>(arity));
    for (uint64_t i = 0; i < arity; ++i) {
      Attribute attr;
      RELCOMP_RETURN_IF_ERROR(Str(&attr.name, "attribute name"));
      RELCOMP_RETURN_IF_ERROR(Dom(&attr.domain));
      attributes.push_back(std::move(attr));
    }
    *schema = RelationSchema(std::move(name), std::move(attributes));
    return Status::OK();
  }

  Status DbSchema(DatabaseSchema* schema) {
    uint64_t count = 0;
    RELCOMP_RETURN_IF_ERROR(U64(&count, "schema size"));
    if (count > size_ - pos_) return Torn("relation schemas");
    *schema = DatabaseSchema();
    for (uint64_t i = 0; i < count; ++i) {
      RelationSchema rel;
      RELCOMP_RETURN_IF_ERROR(RelSchema(&rel));
      schema->AddRelation(std::move(rel));
    }
    return Status::OK();
  }

  Status Row(size_t arity, Tuple* t) {
    t->clear();
    t->reserve(arity);
    for (size_t i = 0; i < arity; ++i) {
      Value v;
      RELCOMP_RETURN_IF_ERROR(Val(&v));
      t->push_back(v);
    }
    return Status::OK();
  }

  Status Inst(Instance* instance) {
    DatabaseSchema schema;
    RELCOMP_RETURN_IF_ERROR(DbSchema(&schema));
    *instance = Instance(schema);
    for (const RelationSchema& rel : schema.relations()) {
      uint64_t rows = 0;
      RELCOMP_RETURN_IF_ERROR(U64(&rows, "relation row count"));
      if (rows > size_ - pos_) return Torn("relation rows");
      for (uint64_t r = 0; r < rows; ++r) {
        Tuple row;
        RELCOMP_RETURN_IF_ERROR(Row(rel.arity(), &row));
        instance->AddTuple(rel.name(), std::move(row));
      }
    }
    return Status::OK();
  }

  Status Mu(Valuation* mu) {
    uint64_t slots = 0;
    RELCOMP_RETURN_IF_ERROR(U64(&slots, "valuation size"));
    if (slots > size_ - pos_) return Torn("valuation slots");
    *mu = Valuation(static_cast<size_t>(slots));
    for (uint64_t i = 0; i < slots; ++i) {
      uint8_t bound = 0;
      RELCOMP_RETURN_IF_ERROR(U8(&bound, "valuation slot"));
      if (bound != 0) {
        Value v;
        RELCOMP_RETURN_IF_ERROR(Val(&v));
        mu->Bind(VarId{static_cast<int32_t>(i)}, v);
      }
    }
    return Status::OK();
  }

  Status Dec(Decision* decision) {
    uint32_t code = 0;
    RELCOMP_RETURN_IF_ERROR(U32(&code, "status code"));
    // A cached decision is a verdict or a decider error, never a storage
    // error, so the codes a snapshot may hold end at kCancelled and the
    // storage codes appended after it leave kVersion unchanged.
    if (code > static_cast<uint32_t>(StatusCode::kCancelled)) {
      return Status::Corruption("cache snapshot: unknown status code " +
                                std::to_string(code));
    }
    std::string message;
    RELCOMP_RETURN_IF_ERROR(Str(&message, "status message"));
    decision->status =
        Status(static_cast<StatusCode>(code), std::move(message));
    uint8_t answer = 0;
    RELCOMP_RETURN_IF_ERROR(U8(&answer, "answer"));
    decision->answer = answer != 0;
    decision->from_cache = false;  // recomputed by the serving hit path
    RELCOMP_RETURN_IF_ERROR(Str(&decision->note, "note"));
    RELCOMP_RETURN_IF_ERROR(U64(&decision->stats.valuations, "stats"));
    RELCOMP_RETURN_IF_ERROR(U64(&decision->stats.worlds, "stats"));
    RELCOMP_RETURN_IF_ERROR(U64(&decision->stats.extensions, "stats"));
    RELCOMP_RETURN_IF_ERROR(U64(&decision->stats.cc_checks, "stats"));
    RELCOMP_RETURN_IF_ERROR(U64(&decision->stats.query_evals, "stats"));
    uint8_t has_witness = 0;
    RELCOMP_RETURN_IF_ERROR(U8(&has_witness, "witness flag"));
    if (has_witness != 0) {
      auto witness = std::make_shared<CompletenessWitness>();
      RELCOMP_RETURN_IF_ERROR(Mu(&witness->world_valuation));
      RELCOMP_RETURN_IF_ERROR(Inst(&witness->world));
      RELCOMP_RETURN_IF_ERROR(Inst(&witness->extension));
      uint64_t arity = 0;
      RELCOMP_RETURN_IF_ERROR(U64(&arity, "witness answer arity"));
      if (arity > size_ - pos_) return Torn("witness answer");
      RELCOMP_RETURN_IF_ERROR(
          Row(static_cast<size_t>(arity), &witness->answer));
      RELCOMP_RETURN_IF_ERROR(Str(&witness->note, "witness note"));
      decision->witness = std::move(witness);
    } else {
      decision->witness = nullptr;
    }
    return Status::OK();
  }

  bool AtEnd() const { return pos_ == size_; }
  size_t remaining() const { return size_ - pos_; }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

uint64_t Checksum(const char* data, size_t size) {
  StableHasher hasher;
  hasher.Mix(data, size);
  return hasher.digest();
}

}  // namespace

std::string EncodeSnapshot(const Snapshot& snapshot) {
  Writer payload;
  payload.U64(snapshot.shards.size());
  for (const SnapshotShard& shard : snapshot.shards) {
    payload.U64(shard.setting_key.primary);
    payload.U64(shard.setting_key.check);
    payload.U64(shard.entries.size());
    for (const auto& [key, decision] : shard.entries) {
      payload.U64(key.primary);
      payload.U64(key.check);
      payload.Dec(decision);
    }
  }
  std::string body = payload.Take();

  Writer header;
  for (char c : kMagic) header.U8(static_cast<uint8_t>(c));
  header.U32(kVersion);
  header.U64(body.size());
  header.U64(Checksum(body.data(), body.size()));
  std::string out = header.Take();
  out += body;
  return out;
}

Result<Snapshot> DecodeSnapshot(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption(
        "cache snapshot: bad magic (not a relcomp cache snapshot)");
  }
  if (bytes.size() < kHeaderBytes) return Torn("header");
  Reader header(bytes.data() + sizeof(kMagic), kHeaderBytes - sizeof(kMagic));
  uint32_t version = 0;
  uint64_t payload_size = 0, checksum = 0;
  RELCOMP_RETURN_IF_ERROR(header.U32(&version, "version"));
  RELCOMP_RETURN_IF_ERROR(header.U64(&payload_size, "payload size"));
  RELCOMP_RETURN_IF_ERROR(header.U64(&checksum, "checksum"));
  if (version != kVersion) {
    return Status::VersionMismatch("cache snapshot: unsupported version " +
                                   std::to_string(version) + " (expected " +
                                   std::to_string(kVersion) + ")");
  }
  if (bytes.size() - kHeaderBytes != payload_size) {
    return Status::DataLoss(
        "cache snapshot: payload size mismatch (file truncated or padded)");
  }
  // Checksum and parse in place — witness-heavy snapshots are large, and a
  // substr copy here would double peak memory during a warm start.
  const char* payload = bytes.data() + kHeaderBytes;
  const size_t payload_size_actual = bytes.size() - kHeaderBytes;
  if (Checksum(payload, payload_size_actual) != checksum) {
    return Status::Corruption(
        "cache snapshot: checksum mismatch (file corrupted)");
  }

  Reader reader(payload, payload_size_actual);
  Snapshot snapshot;
  uint64_t shard_count = 0;
  RELCOMP_RETURN_IF_ERROR(reader.U64(&shard_count, "shard count"));
  if (shard_count > reader.remaining()) return Torn("shards");
  for (uint64_t s = 0; s < shard_count; ++s) {
    SnapshotShard shard;
    RELCOMP_RETURN_IF_ERROR(reader.U64(&shard.setting_key.primary,
                                       "setting fingerprint"));
    RELCOMP_RETURN_IF_ERROR(reader.U64(&shard.setting_key.check,
                                       "setting fingerprint"));
    uint64_t entry_count = 0;
    RELCOMP_RETURN_IF_ERROR(reader.U64(&entry_count, "entry count"));
    if (entry_count > reader.remaining()) return Torn("entries");
    shard.entries.reserve(static_cast<size_t>(entry_count));
    for (uint64_t e = 0; e < entry_count; ++e) {
      RequestCacheKey key;
      RELCOMP_RETURN_IF_ERROR(reader.U64(&key.primary, "entry key"));
      RELCOMP_RETURN_IF_ERROR(reader.U64(&key.check, "entry key"));
      Decision decision;
      RELCOMP_RETURN_IF_ERROR(reader.Dec(&decision));
      shard.entries.emplace_back(key, std::move(decision));
    }
    snapshot.shards.push_back(std::move(shard));
  }
  if (!reader.AtEnd()) {
    return Status::Corruption("cache snapshot: trailing bytes after payload");
  }
  return snapshot;
}

Status SaveSnapshot(const Snapshot& snapshot, const std::string& path) {
  const std::string bytes = EncodeSnapshot(snapshot);
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      return Status::IoError("cannot open '" + tmp + "' for writing");
    }
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    if (!out) {
      std::remove(tmp.c_str());
      return Status::IoError("short write to '" + tmp + "'");
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IoError("cannot rename '" + tmp + "' to '" + path + "'");
  }
  return Status::OK();
}

Result<Snapshot> LoadSnapshot(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot read cache snapshot '" + path + "'");
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  return DecodeSnapshot(bytes);
}

}  // namespace cache
}  // namespace relcomp
