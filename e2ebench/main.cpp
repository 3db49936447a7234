// End-to-end wall-clock benchmark with per-layer attribution.
//
//   nadmm_e2e --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--workdir <dir>]
//   nadmm_e2e --self-test
//
// A run sets its workload up several times (the median is setup_s),
// runs one untimed warm-up operation, then repeats operations for the
// requested seconds — and until the operations' lower quartile and the
// steps' p90 each have ten samples beyond them. With --trace 1 it also
// measures the host ceilings and alternates plain and traced operations,
// the traced ones giving the per-layer numbers. Every operation's output
// is checked; the last stdout line is one JSON object: correct,
// attempted, failed, metrics.
#include <sched.h>
#include <sys/resource.h>
#ifdef _OPENMP
#include <omp.h>
#endif

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "host_probe.hpp"
#include "la/kernels.hpp"
#include "stats.hpp"
#include "workloads.hpp"

int run_self_tests();

namespace {

using namespace e2e;

// A run keeps going past --seconds until it holds this many operations
// and steps, so the lower quartile of operations and the p90 of steps
// each have ten samples beyond them.
constexpr std::size_t kMinOps = 40;
constexpr std::size_t kMinSteps = 100;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
  std::string note;  ///< sample count or definition, table only
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  std::string workdir = ".bench_build/e2ebench/work";
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: nadmm_e2e --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> [--workdir <dir>]\n"
               "       nadmm_e2e --self-test\nworkloads:",
               why);
  for (const auto& n : workload_names()) std::fprintf(stderr, " %s", n.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + flag).c_str());
    const std::string v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (*end != '\0') usage("--seed takes an integer");
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v.c_str(), &end);
      if (*end != '\0' || !(a.seconds > 0.0)) usage("--seconds takes a positive number");
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1" ? 1 : 0;
    } else if (flag == "--workdir") {
      a.workdir = v;
    } else {
      usage(("unknown flag " + flag).c_str());
    }
  }
  if (a.workload.empty()) usage("--workload is required");
  return a;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::size_t total_steps(const std::vector<OpResult>& ops) {
  std::size_t n = 0;
  for (const auto& op : ops) n += op.step_ms.size();
  return n;
}

std::vector<double> all_steps(const std::vector<OpResult>& ops) {
  std::vector<double> v;
  for (const auto& op : ops) v.insert(v.end(), op.step_ms.begin(), op.step_ms.end());
  return v;
}

std::vector<double> op_walls(const std::vector<OpResult>& ops) {
  std::vector<double> v;
  for (const auto& op : ops) v.push_back(op.wall_s);
  return v;
}

std::string count_note(std::size_t n) { return "n=" + std::to_string(n); }

// Pins the calling thread to each CPU of its original mask in turn.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&all_);
    if (sched_getaffinity(0, sizeof all_, &all_) != 0) return;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &all_)) cpus_.push_back(c);
    }
  }
  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[turn_++ % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  [[nodiscard]] int cpu_count() const { return static_cast<int>(cpus_.size()); }
  void release() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof all_, &all_);
  }

 private:
  cpu_set_t all_;
  std::vector<int> cpus_;
  std::size_t turn_ = 0;
};

// BENCHMARK.json's end-to-end metrics: the same three names on every
// workload, each workload defining its operation. On a shared host the
// neighbours' load comes in stretches of 5 to 30 s, and each kind of
// operation resists it with its own statistic (spreads are IQR/median
// of time_to_result_s over ten 25 s runs, two or three sets each):
// - Multi-threaded operations (rank or sweep threads on every core) wait
//   at barriers for the slowest thread, so a stretch slows every
//   operation in it by 15 to 100%, and a run may fall wholly, partly or
//   not at all into one. The median and the mean move with the share of
//   the run that did (newton-dense's median: 0.26 in two sets); the
//   lower quartile reads the operations outside the stretches
//   (sweep-grid 0.05-0.07 against the median's 0.09-0.10; newton-dense
//   0.06-0.09, no worse than its median).
// - Single-threaded operations go to each CPU in turn, and a core can
//   stay slower than the others for minutes. The lower quartile then
//   reads the fastest cores only, and moves with which ones they are; the
//   median weighs every core (serve-bursty 0.06-0.08 against the lower
//   quartile's 0.10-0.14; async-sparse-faulty 0.06-0.11 either way).
// Per-step percentiles and the other operation statistics are printed
// with the named metrics but not bounded.
std::vector<Metric> end_to_end_metrics(const std::vector<double>& setups,
                                       const std::vector<OpResult>& plain,
                                       bool rotated, double rss_mb,
                                       const char* rss_note) {
  const std::vector<double> walls = op_walls(plain);
  return {
      {"setup_s", "s", median(setups), count_note(setups.size())},
      {"time_to_result_s", "s", rotated ? median(walls) : quantile(walls, 0.25),
       count_note(walls.size()) + (rotated ? ", median" : ", lower quartile")},
      {"peak_rss_mb", "MB", rss_mb, rss_note},
  };
}

// The named end-to-end metrics of this workload, table only:
// several repeat exactly for a seed (simulated time, virtual latency) or
// depend on the seed's data (epochs to target), so they are reported
// but not bounded.
std::vector<Metric> named_metrics(const std::vector<OpResult>& plain,
                                  const Tally& tally) {
  std::map<std::string, std::vector<double>> values;
  for (const auto& op : plain) {
    for (const auto& [k, v] : op.values) values[k].push_back(v);
  }
  const std::vector<double> steps = all_steps(plain);
  std::vector<Metric> out = {
      {"step_ms_p50", "ms", median(steps), count_note(steps.size())},
      {"step_ms_p90", "ms", quantile(steps, 0.9), count_note(steps.size())},
      {"time_to_result_s_p25", "s", quantile(op_walls(plain), 0.25), count_note(plain.size())},
      {"time_to_result_s_p50", "s", median(op_walls(plain)), count_note(plain.size())},
      {"time_to_result_s_mean", "s", mean(op_walls(plain)), count_note(plain.size())},
  };
  const auto add = [&](const char* name, const char* unit) {
    const auto it = values.find(name);
    if (it == values.end()) return;
    out.push_back({name, unit, median(it->second), count_note(it->second.size())});
  };
  add("time_to_target_s", "s");
  add("epochs_to_target", "count");
  add("sim_time_to_target_s", "sim_s");
  add("sim_total_s", "sim_s");
  add("final_objective", "loss");
  add("final_accuracy", "frac");
  add("replay_rps", "1/s");
  add("serve_p50_ms", "virtual_ms");
  add("serve_p99_ms", "virtual_ms");
  add("batches", "count");
  add("mean_batch", "count");
  add("scenarios_per_s", "1/s");
  out.push_back({"failed_frac", "frac", tally.failed_frac(),
                 std::to_string(tally.failed) + "/" +
                     std::to_string(tally.attempted) + " operations"});
  return out;
}

const char* const kKernels[] = {"gemm_nn", "gemm_tn", "gemv_t", "spmm_tn",
                                "softmax_forward"};

// BENCHMARK.json's per-layer metrics, in its order, for any
// workload; a layer the workload never enters reads 0. Seconds are per
// operation and per host thread that ran spans; counts are per
// operation over all ranks.
std::vector<Metric> layer_metrics(const std::vector<LayerSample>& traced,
                                  const std::vector<OpResult>& plain,
                                  const std::vector<double>& generate_s,
                                  const std::vector<double>& shard_s,
                                  double data_bytes, const HostCeilings& host) {
  std::map<std::string, double> sum;
  std::map<std::string, std::vector<double>> dist;
  double thread_s = 0.0;
  std::vector<double> traced_walls;
  std::string coverage_note = "layer span self time / traced thread time";
  for (const auto& t : traced) {
    if (!t.coverage_note.empty()) coverage_note = t.coverage_note;
    for (const auto& [k, v] : t.sums) sum[k] += v;
    for (const auto& [k, v] : t.samples) dist[k].insert(dist[k].end(), v.begin(), v.end());
    thread_s += t.thread_s;
    traced_walls.push_back(t.wall_s);
  }
  const double ops = std::max<double>(1.0, static_cast<double>(traced.size()));
  const double threads = std::max(1.0, sum["threads"] / ops);
  const auto get = [&](const std::string& k) {
    const auto it = sum.find(k);
    return it == sum.end() ? 0.0 : it->second;
  };
  const auto per_op = [&](const std::string& k) { return get(k) / ops; };
  const auto per_thread = [&](const std::string& k) { return get(k) / ops / threads; };
  const auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };

  std::vector<Metric> m;
  m.push_back({"data.generate_s", "s", median(generate_s), "median of set-ups"});
  m.push_back({"data.shard_s", "s", median(shard_s), "median of set-ups"});
  m.push_back({"data.bytes", "bytes", data_bytes, "resident train+test"});
  for (const char* k : kKernels) {
    const std::string b = std::string("la.") + k;
    const double incl = get(b + ".incl_s");
    const double gflops = ratio(get(b + ".flops"), incl) * 1e-9;
    const double intensity = ratio(get(b + ".flops"), get(b + ".bytes"));
    m.push_back({b + ".self_s", "s", per_thread(b + ".self_s"), ""});
    m.push_back({b + ".calls", "count", per_op(b + ".calls"), ""});
    m.push_back({b + ".gflop_per_s", "GFLOP/s", gflops, "per thread"});
    m.push_back({b + ".flop_per_byte", "flop/B", intensity, "compulsory traffic"});
    m.push_back({b + ".peak_frac", "frac", roofline_fraction(gflops, intensity, host),
                 "of min(peak, intensity x triad)"});
    m.push_back({b + ".sim_wall_ratio", "ratio", ratio(get(b + ".sim_s"), incl),
                 "simulated / host seconds"});
  }
  m.push_back({"core.local_step_s", "s", per_thread("core.local_step.incl_s"), ""});
  m.push_back({"core.local_step.self_s", "s", per_thread("core.local_step.self_s"),
               "minus kernel spans"});
  m.push_back({"core.consensus_merge_s", "s", per_thread("core.consensus_merge.incl_s"), ""});
  m.push_back({"core.consensus_apply_s", "s", per_thread("core.consensus_apply.incl_s"), ""});
  m.push_back({"core.diagnostics_s", "s", per_thread("core.diagnostics.incl_s"), ""});
  m.push_back({"comm.gather_s", "s", per_thread("comm.gather.incl_s"), ""});
  m.push_back({"comm.broadcast_s", "s", per_thread("comm.broadcast.incl_s"), ""});
  m.push_back({"comm.allreduce_s", "s", per_thread("comm.allreduce.incl_s"), ""});
  m.push_back({"comm.collective_calls", "count", per_op("comm.collective_calls"), ""});
  m.push_back({"comm.payload_bytes", "bytes", per_op("comm.payload_bytes"), ""});
  const auto& skew = dist["comm.rank_skew_ms"];
  m.push_back({"comm.rank_skew_ms_p90", "ms",
               percentile_supported(skew.size(), 900) ? quantile(skew, 0.9) : 0.0,
               count_note(skew.size())});
  m.push_back({"comm.deliver.calls", "count", per_op("comm.deliver.calls"), ""});
  m.push_back({"comm.deliver.self_s", "s", per_thread("comm.deliver.self_s"), ""});
  m.push_back({"comm.engine_s", "s", per_thread("comm.engine.self_s"),
               "event loop + coordinator between handler spans"});
  m.push_back({"wire.encode_s", "s", per_thread("wire.encode.incl_s"), ""});
  m.push_back({"wire.decode_s", "s", per_thread("wire.decode.incl_s"), ""});
  m.push_back({"wire.frames_sent", "count", per_op("wire.frames_sent"), ""});
  m.push_back({"wire.retransmits", "count", per_op("wire.retransmits"), ""});
  m.push_back({"wire.useful_frac", "frac",
               ratio(get("wire.first_deliveries"), get("wire.frames_sent")),
               "first-time deliveries / transmissions"});
  m.push_back({"serve.batch_dispatch_s", "s", per_thread("serve.batch_dispatch.incl_s"), ""});
  m.push_back({"serve.batches", "count", per_op("serve.batches"), ""});
  m.push_back({"serve.mean_batch", "count", per_op("serve.mean_batch"), ""});
  m.push_back({"serve.engine_s", "s",
               per_thread("serve.simulate.incl_s") - per_thread("serve.batch_dispatch.incl_s"),
               "simulate minus dispatch spans"});
  const auto& scen = dist["runner.scenario_ms"];
  m.push_back({"runner.scenario_ms_p50", "ms",
               percentile_supported(scen.size(), 500) ? quantile(scen, 0.5) : 0.0,
               count_note(scen.size())});
  m.push_back({"runner.report_write_s", "s", per_op("runner.report_write.incl_s"), ""});
  m.push_back({"data.provider.hit_frac", "frac",
               ratio(get("data.provider.hits"), get("data.provider.gets")), ""});
  const double plain_wall = median(op_walls(plain));
  m.push_back({"telemetry.overhead_frac", "frac",
               plain_wall > 0.0 && !traced_walls.empty()
                   ? median(traced_walls) / plain_wall - 1.0
                   : 0.0,
               "traced / plain median wall - 1"});
  m.push_back({"telemetry.coverage_frac", "frac",
               ratio(get("attributed.self_s"), thread_s), coverage_note});
  m.push_back({"host.peak_gflops", "GFLOP/s", host.peak_gflops,
               std::string("1 core, unfused, ") + host.peak_isa});
  m.push_back({"host.triad_gbps", "GB/s", host.triad_gbps, "1 core"});
  return m;
}

void print_table(const char* title, const std::vector<Metric>& metrics) {
  std::printf("%s\n", title);
  for (const auto& m : metrics) {
    std::printf("  %-28s %16.6g %-10s %s\n", m.name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void print_json(bool correct, const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i ? ", " : "",
                metrics[i].name.c_str(), v, metrics[i].unit.c_str());
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int run(const Args& a) {
  const auto workload = make_workload(a.workload);
  if (!workload) usage(("unknown workload '" + a.workload + "'").c_str());
  const double process_start = now_s();
  std::filesystem::create_directories(a.workdir);
#ifdef _OPENMP
  // Every workload's budget is one OpenMP thread per host thread, set-up
  // included. With the default all-core team, set-up's short parallel
  // regions in data generation timed vCPU wake-ups more than the code:
  // 0.02 s or 0.1 s per process on a 4-vCPU VM, flipping with the host's
  // load, where one thread takes a steady 0.07 s.
  omp_set_num_threads(1);
#endif

  std::printf("workload %s (seed %llu, %s)\n", a.workload.c_str(),
              static_cast<unsigned long long>(a.seed), a.trace ? "traced" : "plain");
  std::printf("  why: %s\n  threads: %s\n  operation: %s; step: %s\n",
              workload->why(), workload->threads(), workload->op_name(),
              workload->step_name());
  std::printf("  kernel ISA (library build): %s\n", nadmm::la::kernels::active_isa());

  // One vCPU of a shared host can run much slower than the others for
  // minutes (0.084 s against 0.058 s for the same async set-up), so
  // single-threaded set-ups and operations each go to the next CPU in
  // turn and a run samples every core alike. Set-ups move in equal
  // blocks: one right after a move runs on cold caches (sweep-grid's
  // median set-up read ~42 us when every one moved, ~27 us in blocks),
  // and the median ignores the block's first.
  CpuRotation rotation;
  std::vector<double> setups, generate_s, shard_s;
  double data_bytes = 0.0;
  const int setup_block =
      std::max(1, workload->setup_repeats() / std::max(1, rotation.cpu_count()));
  for (int i = 0; i < workload->setup_repeats(); ++i) {
    if (workload->setup_single_threaded() && i % setup_block == 0) rotation.next();
    const double t0 = now_s();
    const SetupTimes st = workload->setup(a.seed, a.workdir);
    setups.push_back(now_s() - t0);
    generate_s.push_back(st.generate_s);
    shard_s.push_back(st.shard_s);
    data_bytes = st.bytes;
  }

  const std::string expected = recorded_fingerprint(a.workload, a.seed);
  Tally tally;
  std::vector<std::string> failures;
  const auto record = [&](OpResult& r) {
    if (r.ok && !expected.empty()) {
      const auto bad = fingerprint_mismatches(expected, r.fingerprint);
      if (!bad.empty()) {
        r.ok = false;
        r.failure = "fingerprint mismatch on " + bad.front() + ": got " +
                    to_string(r.fingerprint);
      }
    }
    tally.record(r.ok);
    if (!r.ok && failures.size() < 5) failures.push_back(r.failure);
    return r.ok;
  };

  rotation.release();
  const auto pin = [&] {
    if (workload->single_threaded()) rotation.next();
  };
  pin();
  OpResult warm = workload->run();
  record(warm);
  std::printf("  fingerprint: %s (%s)\n", to_string(warm.fingerprint).c_str(),
              expected.empty() ? "no reference for this seed: generic checks"
                               : "checked against the recorded reference");

  rotation.release();
  HostCeilings host;
  if (a.trace) {
    host = measure_host();
    std::printf("  host probe: peak on %s; last-level cache %.1f MiB, triad "
                "arrays %.1f MiB in total\n",
                host.peak_isa, static_cast<double>(host.llc_bytes) / 1048576.0,
                static_cast<double>(host.triad_bytes) / 1048576.0);
  }

  std::vector<OpResult> plain;
  std::vector<LayerSample> traced;
  std::size_t traced_steps = 0;
  const double t_begin = now_s();
  const double deadline = t_begin + a.seconds;
  // Hard stop well inside the 180 s a run may take.
  const double cap = std::min(t_begin + 3.0 * a.seconds + 20.0, process_start + 150.0);
  while (true) {
    pin();
    OpResult r = workload->run();
    if (record(r)) plain.push_back(std::move(r));
    if (a.trace) {
      pin();
      LayerSample layers;
      OpResult t = workload->run_traced(layers);
      if (record(t)) {
        traced_steps += t.step_ms.size();
        traced.push_back(std::move(layers));
      }
    }
    const bool enough = a.trace ? traced_steps >= kMinSteps
                                : plain.size() >= kMinOps &&
                                      total_steps(plain) >= kMinSteps;
    const double t = now_s();
    if ((t >= deadline && enough) || t >= cap) break;
  }
  rotation.release();

  const std::vector<Metric> e2e = end_to_end_metrics(
      setups, plain, workload->single_threaded(), peak_rss_mb(),
      a.trace ? "ru_maxrss, includes the host probe's triad arrays"
              : "ru_maxrss");
  print_table("end-to-end (plain operations):", e2e);
  print_table("named (plain operations):", named_metrics(plain, tally));
  bool correct = tally.failed == 0 && !plain.empty();
  std::vector<Metric> layers;
  if (a.trace) {
    layers = layer_metrics(traced, plain, generate_s, shard_s, data_bytes, host);
    print_table("per-layer (traced operations):", layers);
    correct = correct && !traced.empty();
  } else if (!percentile_supported(plain.size(), 750)) {  // mirrors p25
    failures.push_back("too few operations for a lower quartile: " +
                       std::to_string(plain.size()));
    correct = false;
  } else if (!percentile_supported(total_steps(plain), 900)) {
    failures.push_back("too few steps for a p90: " + std::to_string(total_steps(plain)));
    correct = false;
  }
  for (const auto& f : failures) std::printf("FAILED: %s\n", f.c_str());
  print_json(correct, tally, a.trace ? layers : e2e);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--self-test") return run_self_tests();
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
