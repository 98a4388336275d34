// The three benchmark workloads. Each is a pure function of its seed: the
// settings to register, the service options, and the request stream, with
// the verdict its construction fixes for every request.
//
//   strong-audit  distinct rcdp-strong requests on the Fig. 1 MDM c-table
//                 (four missing values each); every verdict is YES.
//   hot-repeat    a warm-started service answering Zipf-skewed repeats of
//                 cheap audit requests its snapshot already holds.
//   tenant-churn  mixed-tenant batches over four masters of very different
//                 sizes, under a shared cache byte budget the working set
//                 overflows, with one-shot scan keys mixed in.
#ifndef PERFBENCH_DRIVER_WORKLOADS_H_
#define PERFBENCH_DRIVER_WORKLOADS_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "service/service.h"

namespace relcomp {
namespace perfbench {

/// splitmix64: fixed and platform-independent, so one seed yields the same
/// inputs on every machine and in every run.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  uint64_t Below(uint64_t n) { return Next() % n; }
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

 private:
  uint64_t state_;
};

/// Draws ranks in [0, n) with weight 1 / (rank + 1)^s.
class Zipf {
 public:
  Zipf(size_t n, double s);
  size_t Draw(Rng& rng) const;

 private:
  std::vector<double> cdf_;
};

/// One registered setting and its per-setting options.
struct Tenant {
  PartiallyClosedSetting setting;
  ShardOptions options;
};

/// One request of the stream, tagged with the verdict the workload's
/// construction fixes for it. `id` names the distinct request: repeats of
/// one request share it.
struct Item {
  uint32_t id = 0;
  size_t tenant = 0;
  DecisionRequest request;
  bool expected = false;
};

struct Workload {
  std::string name;
  ServiceOptions options;
  std::vector<Tenant> tenants;
  /// Requests per SubmitBatch call; 0 = one request per SubmitAsync call,
  /// two calls in flight.
  size_t batch = 0;
  /// Set-up loads a snapshot that an earlier service saved after deciding
  /// `working_set`.
  bool warm_start = false;
  /// The distinct requests the stream repeats (null when every request is
  /// distinct).
  std::shared_ptr<const std::vector<Item>> working_set;
  /// The traced run replays the distinct requests of this many calls.
  size_t replay_calls = 0;
  /// The stream: the next request. Deterministic in the seed.
  std::function<std::shared_ptr<const Item>()> next;
};

/// Builds workload `name` for `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace perfbench
}  // namespace relcomp

#endif  // PERFBENCH_DRIVER_WORKLOADS_H_
