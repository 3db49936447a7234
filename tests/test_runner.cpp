// Tests for the experiment harness (src/runner) and the solver option
// plumbing the benches rely on.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>

#include "runner/harness.hpp"
#include "runner/options.hpp"
#include "support/check.hpp"

namespace nadmm::runner {
namespace {

/// Contiguous zero-copy shards sized to the cluster.
nadmm::data::ShardedDataset shards(const nadmm::comm::SimCluster& cluster,
                                   const nadmm::data::Dataset& train,
                                   const nadmm::data::Dataset* test) {
  nadmm::data::ShardPlan plan;
  plan.parts = cluster.size();
  return nadmm::data::make_sharded(train, test, plan);
}

TEST(HarnessOptions, AdmmOptionsMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 17;
  c.lambda = 0.25;
  c.cg_iterations = 23;
  c.cg_tol = 1e-6;
  c.line_search_iterations = 4;
  const auto o = admm_options(c);
  EXPECT_EQ(o.max_iterations, 17);
  EXPECT_DOUBLE_EQ(o.lambda, 0.25);
  EXPECT_EQ(o.cg.max_iterations, 23);
  EXPECT_DOUBLE_EQ(o.cg.rel_tol, 1e-6);
  EXPECT_EQ(o.line_search.max_iterations, 4);
}

TEST(HarnessOptions, GiantOptionsMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 9;
  c.lambda = 0.5;
  c.cg_iterations = 7;
  c.line_search_iterations = 6;
  const auto o = giant_options(c);
  EXPECT_EQ(o.max_iterations, 9);
  EXPECT_DOUBLE_EQ(o.lambda, 0.5);
  EXPECT_EQ(o.cg.max_iterations, 7);
  EXPECT_EQ(o.line_search_steps, 6);
}

TEST(HarnessOptions, DaneEpochsCappedAtTen) {
  // The paper runs InexactDANE/AIDE for only 10 epochs.
  ExperimentConfig c;
  c.iterations = 100;
  EXPECT_EQ(dane_options(c).max_iterations, 10);
  c.iterations = 3;
  EXPECT_EQ(dane_options(c).max_iterations, 3);
}

TEST(HarnessOptions, SgdAndDiscoMirrorConfig) {
  ExperimentConfig c;
  c.iterations = 12;
  c.lambda = 2.0;
  EXPECT_EQ(sgd_options(c).epochs, 12);
  EXPECT_DOUBLE_EQ(sgd_options(c).lambda, 2.0);
  EXPECT_EQ(disco_options(c).max_iterations, 12);
}

TEST(HarnessCluster, BuildsConfiguredClusterAndRejectsBadSpecs) {
  ExperimentConfig c;
  c.workers = 3;
  c.device = "cpu";
  c.network = "eth10";
  auto cluster = make_cluster(c);
  EXPECT_EQ(cluster.size(), 3);
  EXPECT_EQ(cluster.network().name, "eth10");
  c.network = "bogus";
  EXPECT_THROW(make_cluster(c), InvalidArgument);
  c.network = "ib100";
  c.device = "bogus";
  EXPECT_THROW(make_cluster(c), InvalidArgument);
}

TEST(HarnessData, E18FeatureCountHonoured) {
  ExperimentConfig c;
  c.dataset = "e18";
  c.n_train = 50;
  c.n_test = 10;
  c.e18_features = 256;
  const auto tt = make_data(c);
  EXPECT_EQ(tt.train.num_features(), 256u);
}

TEST(HarnessData, SeedChangesData) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 40;
  c.n_test = 10;
  c.e18_features = 16;
  c.seed = 1;
  const auto a = make_data(c);
  c.seed = 2;
  const auto b = make_data(c);
  int same = 0;
  const auto da = a.train.dense_features().data();
  const auto db = b.train.dense_features().data();
  for (std::size_t i = 0; i < da.size(); ++i) same += (da[i] == db[i]);
  EXPECT_LT(same, 5);
}

TEST(HarnessCsv, EmptyTraceProducesHeaderOnly) {
  core::RunResult r;
  const std::string path = testing::TempDir() + "/nadmm_empty_trace.csv";
  write_trace_csv(r, path);
  std::ifstream in(path);
  std::string line;
  int lines = 0;
  while (std::getline(in, line)) ++lines;
  EXPECT_EQ(lines, 1);  // header only
  std::filesystem::remove(path);
}

TEST(HarnessTrace, TimeToObjectiveHelpers) {
  core::RunResult r;
  core::IterationStats a;
  a.iteration = 1;
  a.objective = 10.0;
  a.sim_seconds = 0.5;
  core::IterationStats b;
  b.iteration = 2;
  b.objective = 2.0;
  b.sim_seconds = 1.5;
  r.trace = {a, b};
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(5.0), 1.5);
  EXPECT_EQ(r.iterations_to_objective(5.0), 2);
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(11.0), 0.5);
  EXPECT_DOUBLE_EQ(r.sim_time_to_objective(1.0), -1.0);
  EXPECT_EQ(r.iterations_to_objective(1.0), -1);
}

TEST(HarnessEarlyStop, AdmmObjectiveTargetStopsRun) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 300;
  c.n_test = 50;
  c.e18_features = 10;
  c.workers = 2;
  c.iterations = 100;
  c.lambda = 1e-3;
  const auto tt = make_data(c);
  auto opts = admm_options(c);
  // A loose target the very first iterations can reach.
  opts.objective_target = 300.0 * 1.5;
  auto cluster = make_cluster(c);
  const auto r = core::newton_admm(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.final_objective, opts.objective_target);
}

TEST(HarnessEarlyStop, GiantObjectiveTargetStopsRun) {
  ExperimentConfig c;
  c.dataset = "blobs";
  c.n_train = 300;
  c.n_test = 50;
  c.e18_features = 10;
  c.workers = 2;
  c.iterations = 100;
  c.lambda = 1e-3;
  const auto tt = make_data(c);
  auto opts = giant_options(c);
  opts.objective_target = 300.0 * 1.5;
  auto cluster = make_cluster(c);
  const auto r = baselines::giant(cluster, shards(cluster, tt.train, nullptr), opts);
  EXPECT_LT(r.iterations, 100);
  EXPECT_LE(r.final_objective, opts.objective_target);
}


// ------------------------------------------------- declarative options

TEST(OptionSpecs, RegisterValidateAndRejectWithFlagName) {
  OptionSet opts;
  opts.add_int("count", 4, "how many", v_int_min(1));
  opts.add_string("mode", "fast", "speed", v_one_of({"fast", "slow"}));
  opts.add_double("rate", 0.5, "per second", v_double_min(0.0, false));
  CliParser cli("test");
  opts.register_into(cli);
  const char* good[] = {"prog", "--count", "2", "--mode=slow", "--rate", "1.5"};
  ASSERT_TRUE(cli.parse(6, good));
  opts.validate(cli);  // no throw
  EXPECT_EQ(cli.get_int("count"), 2);
  EXPECT_EQ(cli.get_string("mode"), "slow");

  CliParser bad("test");
  opts.register_into(bad);
  const char* argv[] = {"prog", "--count", "0"};
  ASSERT_TRUE(bad.parse(3, argv));
  try {
    opts.validate(bad);
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("--count"), std::string::npos)
        << "rejection must name the flag: " << e.what();
  }
}

TEST(OptionSpecs, DuplicateNamesAreRejected) {
  OptionSet opts;
  opts.add_int("n", 1, "first");
  EXPECT_THROW(opts.add_string("n", "x", "dup"), InvalidArgument);
  OptionSet other;
  other.add_int("n", 2, "also n");
  EXPECT_THROW(opts.extend(other), InvalidArgument);
}

TEST(OptionSpecs, DomainValidatorsCoverTheSharedAxes) {
  const auto ok = [](const OptionValidator& v, const std::string& value) {
    v("--x", value);  // must not throw
  };
  const auto rejects = [](const OptionValidator& v, const std::string& value) {
    EXPECT_THROW(v("--x", value), InvalidArgument) << value;
  };
  ok(v_device_list(), "p100+cpu");
  rejects(v_device_list(), "p100+warp9");
  ok(v_network(), "ideal");
  rejects(v_network(), "carrier-pigeon");
  ok(v_straggler(), "1:4");
  rejects(v_straggler(), "1:");
  ok(v_partition(), "weighted");
  rejects(v_partition(), "sharded");
  ok(v_solver(), "newton-admm");
  rejects(v_solver(), "sgd");
  ok(v_arrival(), "bursty:400:4000:0.5:0.2");
  rejects(v_arrival(), "bursty:400:100:0.5:0.2");
  ok(v_batch_policy(), "deadline:16:0.005");
  rejects(v_batch_policy(), "deadline:16");
  EXPECT_EQ(parse_byte_size("--b", "512m"), 512u << 20);
  EXPECT_EQ(parse_byte_size("--b", "2G"), std::size_t{2} << 30);
  EXPECT_EQ(parse_byte_size("--b", "0"), 0u);
  EXPECT_THROW(parse_byte_size("--b", "12q"), InvalidArgument);
}

// The knob table is the only declaration of a scenario knob: unset flags
// read back as the ExperimentConfig{} defaults, --devices overrides
// --device, and doubles arrive exactly as typed.
TEST(OptionSpecs, ConfigFromCliFollowsTheKnobTable) {
  const ExperimentConfig defaults;
  CliParser unset("test");
  scenario_options().register_into(unset);
  const char* none[] = {"prog"};
  ASSERT_TRUE(unset.parse(1, none));
  const ExperimentConfig plain = config_from_cli(scenario_options(), unset);
  for (const Knob& k : scenario_knobs()) {
    EXPECT_EQ(k.get(plain), k.get(defaults)) << "--" << k.flag.name;
  }

  CliParser cli("test");
  scenario_options().register_into(cli);
  const char* argv[] = {"prog", "--device=cpu", "--devices=p100+cpu",
                        "--objective-target=1e-7", "--n-train=123"};
  ASSERT_TRUE(cli.parse(5, argv));
  const ExperimentConfig c = config_from_cli(scenario_options(), cli);
  EXPECT_EQ(c.device, "p100+cpu");
  EXPECT_EQ(c.objective_target, 1e-7);
  EXPECT_EQ(c.n_train, 123u);
  EXPECT_EQ(c.sync_every, defaults.sync_every);
}

TEST(OptionSpecs, SharedTablesStayConsistent) {
  // run/sweep/serve all build on these tables; the names the registry's
  // knob catalog uses must keep resolving here.
  EXPECT_NE(scenario_options().find("penalty"), nullptr);
  EXPECT_NE(scenario_options().find("sgd-batch"), nullptr);
  EXPECT_NE(serving_options().find("arrival"), nullptr);
  EXPECT_EQ(serving_options().find("penalty"), nullptr);
  const auto knob = describe_knob("cg-iterations");
  EXPECT_EQ(knob.type, "int");
  EXPECT_EQ(knob.default_value, "10");
  EXPECT_FALSE(knob.description.empty());
}

}  // namespace
}  // namespace nadmm::runner
