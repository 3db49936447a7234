// The benchmark's four workloads. Each one sets up its inputs from a
// seed through the library's seeded generators, then runs operations —
// one call a user of `nadmm run`/`serve`/`sweep` would wait for — either
// plain (end-to-end timing) or traced (per-layer attribution).
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "stats.hpp"

namespace e2e {

/// Outcome of one operation, timed with tracing off.
struct OpResult {
  bool ok = true;
  std::string failure;          ///< why the output check failed
  double wall_s = 0.0;          ///< host seconds of the operation
  std::vector<double> step_ms;  ///< host ms per step inside it
  Fingerprint fingerprint;      ///< output identity, checked on the recorded seed
  /// Workload-specific end-to-end values of this operation (simulated
  /// time to target, virtual p99, ...), reported as medians.
  std::map<std::string, double> values;
};

/// Per-layer values of one traced operation. `sums` are additive over
/// operations (seconds summed over the threads that ran them, call and
/// byte counts, flops); `samples` are distributions (per-epoch rank
/// skew, per-scenario wall).
struct LayerSample {
  std::map<std::string, double> sums;
  std::map<std::string, std::vector<double>> samples;
  double wall_s = 0.0;      ///< host seconds of the traced operation
  double thread_s = 0.0;    ///< wall_s × host threads that ran spans
  /// What telemetry.coverage_frac means for this workload, when it is
  /// not the share of thread time the layer spans attribute.
  std::string coverage_note;
};

/// Host-time split of one set-up.
struct SetupTimes {
  double generate_s = 0.0;  ///< dataset generation
  double shard_s = 0.0;     ///< shard planning
  double bytes = 0.0;       ///< resident dataset bytes
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Build inputs and long-lived state from `seed`; replaces the
  /// previous set-up. Files, if any, go under `workdir`.
  virtual SetupTimes setup(std::uint64_t seed, const std::string& workdir) = 0;
  /// One plain operation.
  virtual OpResult run() = 0;
  /// One traced operation; fills `layers`. The returned result is
  /// checked like a plain one (for newton-dense it also carries the
  /// bit-identity check of the composed loop).
  virtual OpResult run_traced(LayerSample& layers) = 0;
  /// How many set-ups one run times (their median is setup_s); a
  /// multiple of the CPU count, so each core is sampled alike.
  [[nodiscard]] virtual int setup_repeats() const { return 16; }
  /// True when set-up runs on the calling thread only; main.cpp then
  /// pins each set-up to the next CPU in turn, as for operations.
  [[nodiscard]] virtual bool setup_single_threaded() const { return true; }
  /// True when an operation runs on the calling thread only (the event
  /// engine); main.cpp then pins each operation to the next CPU in
  /// turn, so a run samples every core equally instead of whichever one
  /// the scheduler picked.
  [[nodiscard]] virtual bool single_threaded() const { return false; }
  /// Human-readable name of one step and of one operation.
  [[nodiscard]] virtual const char* step_name() const = 0;
  [[nodiscard]] virtual const char* op_name() const = 0;
  /// Why the workload exists (which layers only it exercises) and the
  /// host threads it may use; printed with every run.
  [[nodiscard]] virtual const char* why() const = 0;
  [[nodiscard]] virtual const char* threads() const = 0;
};

/// Workload names in the order BENCHMARK.json lists them.
std::vector<std::string> workload_names();

/// Construct a workload by name; nullptr when unknown.
std::unique_ptr<Workload> make_workload(const std::string& name);

/// The recorded reference fingerprint for (workload, seed), or "" when
/// that seed has none recorded.
std::string recorded_fingerprint(const std::string& workload,
                                 std::uint64_t seed);

}  // namespace e2e
