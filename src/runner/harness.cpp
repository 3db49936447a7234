#include "runner/harness.hpp"

#include <algorithm>
#include <cstdio>
#include <optional>

#include "runner/options.hpp"
#include "runner/registry.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/table.hpp"

namespace nadmm::runner {

data::DatasetKey dataset_key(const ExperimentConfig& config) {
  data::DatasetKey key;
  key.source = config.dataset;
  key.n_train = config.n_train;
  key.n_test = config.n_test;
  // File-backed sources take their dimension (and content) from the
  // file, so the generator knobs must not split their cache entries.
  const bool file_backed = config.dataset.rfind("libsvm:", 0) == 0;
  key.features = file_backed ? 0 : config.e18_features;
  key.seed = file_backed ? 0 : config.seed;
  return key;
}

data::TrainTest make_data(const ExperimentConfig& config) {
  return data::generate_dataset(dataset_key(config));
}

namespace {

/// Split a per-rank device list on ',' or '+' (equivalent; sweep axis
/// values must use '+' because commas separate axis entries).
std::vector<std::string> split_device_specs(const std::string& list) {
  std::vector<std::string> out;
  std::string item;
  for (const char c : list) {
    if (c == ',' || c == '+') {
      if (!item.empty()) out.push_back(item);
      item.clear();
    } else if (c != ' ') {
      item += c;
    }
  }
  if (!item.empty()) out.push_back(item);
  return out;
}

}  // namespace

std::vector<la::DeviceModel> cluster_devices(const ExperimentConfig& config) {
  NADMM_CHECK(config.workers >= 1, "cluster needs at least one rank");
  const auto specs = split_device_specs(config.device);
  NADMM_CHECK(!specs.empty(), "device spec must not be empty");
  std::vector<la::DeviceModel> devices;
  devices.reserve(static_cast<std::size_t>(config.workers));
  for (int r = 0; r < config.workers; ++r) {
    devices.push_back(la::device_from_string(
        specs[static_cast<std::size_t>(r) % specs.size()]));
  }
  const auto straggler = config.straggler.empty()
                             ? std::nullopt
                             : parse_straggler("straggler", config.straggler);
  if (straggler) {
    NADMM_CHECK(straggler->rank < config.workers,
                "straggler rank must be in [0, workers), got '" +
                    config.straggler + "'");
    la::DeviceModel& d = devices[static_cast<std::size_t>(straggler->rank)];
    d.gflops /= straggler->slowdown;
    if (d.gbytes_per_s > 0.0) d.gbytes_per_s /= straggler->slowdown;
    d.name += "/x" + config.straggler.substr(config.straggler.find(':') + 1);
  }
  return devices;
}

comm::SimCluster make_cluster(const ExperimentConfig& config) {
  return comm::SimCluster(cluster_devices(config),
                          comm::network_from_string(config.network),
                          config.omp_threads);
}

data::ShardPlan shard_plan(const ExperimentConfig& config) {
  data::ShardPlan plan;
  plan.mode = data::partition_mode_from_string(config.partition);
  plan.parts = config.workers;
  if (plan.mode == data::PartitionMode::kWeighted) {
    // Effective per-rank speed (straggler slowdown included): a 4x-slowed
    // rank gets a quarter of an equal rank's rows.
    for (const la::DeviceModel& d : cluster_devices(config)) {
      plan.weights.push_back(d.gflops);
    }
  }
  return plan;
}

data::ShardedDataset make_sharded_data(const ExperimentConfig& config,
                                       const data::TrainTest& tt) {
  return data::make_sharded(tt.train, &tt.test, shard_plan(config));
}

core::NewtonAdmmOptions admm_options(const ExperimentConfig& config) {
  core::NewtonAdmmOptions o;
  o.max_iterations = config.iterations;
  o.lambda = config.lambda;
  o.cg.max_iterations = config.cg_iterations;
  o.cg.rel_tol = config.cg_tol;
  o.line_search.max_iterations = config.line_search_iterations;
  o.penalty.rule = core::penalty_rule_from_string(config.penalty);
  o.penalty.rho0 = config.rho0;
  o.local_newton_steps = config.local_newton_steps;
  o.objective_target = config.objective_target;
  o.evaluate_accuracy = config.evaluate_accuracy;
  return o;
}

solvers::AsyncAdmmOptions async_options(const ExperimentConfig& config,
                                        bool stale_sync) {
  solvers::AsyncAdmmOptions o;
  o.admm = admm_options(config);
  o.staleness = config.staleness;
  o.sync_every = stale_sync ? std::max(1, config.sync_every) : 0;
  o.fault = config.fault.empty() ? "none" : config.fault;
  o.seed = config.seed;
  o.checkpoint_every = config.checkpoint_every;
  const auto kill =
      config.kill.empty() ? std::nullopt : parse_kill("kill", config.kill);
  if (kill) {
    o.kill_rank = static_cast<int>(kill->rank);
    o.kill_epoch = static_cast<int>(kill->epoch);
  }
  return o;
}

baselines::GiantOptions giant_options(const ExperimentConfig& config) {
  baselines::GiantOptions o;
  o.max_iterations = config.iterations;
  o.lambda = config.lambda;
  o.cg.max_iterations = config.cg_iterations;
  o.cg.rel_tol = config.cg_tol;
  o.line_search_steps = config.line_search_iterations;
  o.objective_target = config.objective_target;
  o.evaluate_accuracy = config.evaluate_accuracy;
  return o;
}

baselines::SyncSgdOptions sgd_options(const ExperimentConfig& config) {
  baselines::SyncSgdOptions o;
  o.epochs = config.iterations;
  o.lambda = config.lambda;
  o.batch_size = config.sgd_batch;
  o.step_size = config.sgd_step;
  o.evaluate_accuracy = config.evaluate_accuracy;
  return o;
}

baselines::DaneOptions dane_options(const ExperimentConfig& config) {
  baselines::DaneOptions o;
  o.max_iterations = std::min(config.iterations, config.dane_epochs);
  o.lambda = config.lambda;
  // Scaled-down inner budget: the real setting (100 outer × 2n inner) is
  // what makes DANE epochs ~10⁴× slower; even this reduced budget leaves
  // them orders of magnitude slower than a Newton-CG epoch.
  o.svrg.max_outer = config.svrg_outer;
  o.svrg.update_frequency = 0;  // 2·n_local
  o.svrg.step_size = 1e-4;
  o.evaluate_accuracy = config.evaluate_accuracy;
  return o;
}

baselines::DiscoOptions disco_options(const ExperimentConfig& config) {
  baselines::DiscoOptions o;
  o.max_iterations = config.iterations;
  o.lambda = config.lambda;
  o.cg.max_iterations = config.cg_iterations;
  o.cg.rel_tol = config.cg_tol;
  o.evaluate_accuracy = config.evaluate_accuracy;
  return o;
}

data::ShardedDataset shard_for_solver(const std::string& solver,
                                      const data::Dataset& train,
                                      const data::Dataset* test,
                                      const ExperimentConfig& config) {
  // Single-node solvers run on the full splits; a one-part plan keeps
  // the uniform factory signature without re-slicing anything.
  const auto& info = SolverRegistry::instance().info(solver);
  const data::ShardPlan plan = info.kind == SolverKind::kSingleNode
                                   ? data::ShardPlan{}
                                   : shard_plan(config);
  return data::make_sharded(train, test, plan);
}

core::RunResult run_solver(const std::string& solver,
                           comm::SimCluster& cluster,
                           const data::ShardedDataset& data,
                           const ExperimentConfig& config) {
  return SolverRegistry::instance().run(solver, cluster, data, config);
}

void write_trace_csv(const core::RunResult& result, const std::string& path) {
  CsvWriter csv(path, {"iteration", "objective", "test_accuracy",
                       "sim_seconds", "wall_seconds", "epoch_sim_seconds",
                       "comm_sim_seconds", "primal_residual", "dual_residual",
                       "rho_mean"});
  for (const auto& it : result.trace) {
    csv.add_row(std::vector<double>{
        static_cast<double>(it.iteration), it.objective, it.test_accuracy,
        it.sim_seconds, it.wall_seconds, it.epoch_sim_seconds,
        it.comm_sim_seconds, it.primal_residual, it.dual_residual,
        it.rho_mean});
  }
}

void print_trace_summary(const core::RunResult& result, int max_rows) {
  std::printf("solver=%s iterations=%d final_objective=%.6f "
              "final_accuracy=%.4f avg_epoch=%.3f ms total_sim=%.3f s\n",
              result.solver.c_str(), result.iterations, result.final_objective,
              result.final_test_accuracy, result.avg_epoch_sim_seconds * 1e3,
              result.total_sim_seconds);
  if (result.trace.empty()) return;
  Table t({"iter", "objective", "test_acc", "sim_s", "epoch_ms"});
  const std::size_t n = result.trace.size();
  const std::size_t stride =
      std::max<std::size_t>(1, n / static_cast<std::size_t>(std::max(1, max_rows)));
  for (std::size_t i = 0; i < n; i += stride) {
    const auto& it = result.trace[i];
    t.add_row({Table::fmt_int(it.iteration), Table::fmt(it.objective, 6),
               Table::fmt(it.test_accuracy, 4), Table::fmt(it.sim_seconds, 4),
               Table::fmt(it.epoch_sim_seconds * 1e3, 3)});
  }
  const auto& last = result.trace.back();
  if ((n - 1) % stride != 0) {
    t.add_row({Table::fmt_int(last.iteration), Table::fmt(last.objective, 6),
               Table::fmt(last.test_accuracy, 4),
               Table::fmt(last.sim_seconds, 4),
               Table::fmt(last.epoch_sim_seconds * 1e3, 3)});
  }
  t.print();
}

}  // namespace nadmm::runner
