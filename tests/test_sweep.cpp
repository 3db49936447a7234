// Tests for the sweep scheduler (src/runner/sweep.*): spec parsing, grid
// expansion order, deterministic aggregation under the thread pool,
// per-scenario failure capture, dataset-cache sharing, and
// journal-based resume.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <utility>
#include <vector>

#include "runner/options.hpp"
#include "runner/sweep.hpp"
#include "support/check.hpp"
#include "support/cli.hpp"

namespace nadmm::runner {
namespace {

SweepSpec tiny_spec() {
  SweepSpec spec;
  spec.solvers = {"newton-admm", "giant"};
  spec.datasets = {"blobs"};
  spec.workers = {2};
  spec.lambdas = {1e-3, 1e-2};
  spec.base.n_train = 120;
  spec.base.n_test = 40;
  spec.base.e18_features = 8;
  spec.base.iterations = 3;
  return spec;
}

// ------------------------------------------------------------ parsing

TEST(SweepSpecParsing, AxisListsAndScalars) {
  SweepSpec spec;
  apply_sweep_assignment(spec, "solvers", "newton-admm, giant ,sync-sgd");
  apply_sweep_assignment(spec, "workers", "2, 4");
  apply_sweep_assignment(spec, "lambdas", "1e-5,1e-4");
  apply_sweep_assignment(spec, "n_train", "500");
  apply_sweep_assignment(spec, "cg_tol", "1e-6");
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"newton-admm", "giant", "sync-sgd"}));
  EXPECT_EQ(spec.workers, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.lambdas, (std::vector<double>{1e-5, 1e-4}));
  EXPECT_EQ(spec.base.n_train, 500u);
  EXPECT_DOUBLE_EQ(spec.base.cg_tol, 1e-6);
}

TEST(SweepSpecParsing, RejectsUnknownKeysAndMalformedValues) {
  SweepSpec spec;
  EXPECT_THROW(apply_sweep_assignment(spec, "solver", "giant"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "workers", "four"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "lambdas", "1e-5x"),
               InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "n_train", ""), InvalidArgument);
}

TEST(SweepSpecParsing, ParsesSpecFileWithComments) {
  const std::string path = testing::TempDir() + "/nadmm_sweep_spec.txt";
  {
    std::ofstream out(path);
    out << "# a comment\n"
        << "solvers = newton-admm, sync-sgd\n"
        << "datasets = blobs   # trailing comment\n"
        << "workers = 2,4\n"
        << "iterations = 7\n"
        << "\n";
  }
  const SweepSpec spec = parse_sweep_file(path);
  EXPECT_EQ(spec.solvers,
            (std::vector<std::string>{"newton-admm", "sync-sgd"}));
  EXPECT_EQ(spec.datasets, (std::vector<std::string>{"blobs"}));
  EXPECT_EQ(spec.workers, (std::vector<int>{2, 4}));
  EXPECT_EQ(spec.base.iterations, 7);
  std::filesystem::remove(path);
}

TEST(SweepSpecParsing, BadSpecLineAndMissingFileThrow) {
  const std::string path = testing::TempDir() + "/nadmm_bad_spec.txt";
  {
    std::ofstream out(path);
    out << "solvers newton-admm\n";
  }
  EXPECT_THROW(static_cast<void>(parse_sweep_file(path)), InvalidArgument);
  {
    std::ofstream out(path);
    out << "# comment\nsolvers = newton-admm\nworkers = 2, 0\n";
  }
  try {
    static_cast<void>(parse_sweep_file(path));
    FAIL() << "expected InvalidArgument";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path + ":3"), std::string::npos) << what;
    EXPECT_NE(what.find("'workers'"), std::string::npos) << what;
  }
  std::filesystem::remove(path);
  EXPECT_THROW(static_cast<void>(parse_sweep_file(path)), RuntimeError);
}

// A spec value and the matching `nadmm run` flag value pass the same
// validator, so each of these is rejected by both, naming key or flag.
TEST(SweepSpecParsing, SpecValuesAndRunFlagsAgree) {
  struct Case {
    const char* key;
    const char* flag;
    const char* value;
  };
  const Case cases[] = {
      {"n_train", "n-train", "-1"},       {"staleness", "staleness", "0"},
      {"seed", "seed", "-3"},             {"stragglers", "straggler", "1:0.5"},
      {"penalties", "penalty", "bogus"},  {"lambdas", "lambda", "-1"},
      {"kill", "kill", "x"},
  };
  for (const Case& c : cases) {
    SweepSpec spec;
    try {
      apply_sweep_assignment(spec, c.key, c.value);
      ADD_FAILURE() << "spec accepted " << c.key << " = " << c.value;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(c.key), std::string::npos)
          << e.what();
    }
    CliParser cli("test");
    scenario_options().register_into(cli);
    const std::string arg = std::string("--") + c.flag + "=" + c.value;
    const char* argv[] = {"prog", arg.c_str()};
    ASSERT_TRUE(cli.parse(2, argv));
    try {
      scenario_options().validate(cli);
      ADD_FAILURE() << "run flags accepted " << arg;
    } catch (const InvalidArgument& e) {
      EXPECT_NE(std::string(e.what()).find(std::string("--") + c.flag),
                std::string::npos)
          << e.what();
    }
  }
}

// Every spec key is a `nadmm sweep` flag whose text reaches the spec
// unchanged: no printf round trip, no -1 "keep" sentinel.
TEST(SweepSpecParsing, OverrideFlagsForwardTheirText) {
  CliParser cli("test");
  sweep_override_options().register_into(cli);
  const char* argv[] = {"prog", "--objective-target=1e-7", "--scale=1e-7",
                        "--line-search-iterations=3",
                        "--batch-policies=size:4"};
  ASSERT_TRUE(cli.parse(5, argv));
  sweep_override_options().validate(cli);
  SweepSpec spec;
  apply_sweep_overrides(spec, cli);
  EXPECT_EQ(spec.base.objective_target, 1e-7);
  EXPECT_EQ(spec.scale, 1e-7);
  EXPECT_EQ(spec.base.line_search_iterations, 3);
  EXPECT_EQ(spec.batch_policies, std::vector<std::string>{"size:4"});
  // Unset flags keep the spec's values.
  EXPECT_EQ(spec.base.n_train, SweepSpec{}.base.n_train);
  EXPECT_EQ(spec.solvers, SweepSpec{}.solvers);
}

// ------------------------------------------------------------ expansion

TEST(SweepExpansion, ProducesFullGridInDeterministicOrder) {
  SweepSpec spec = tiny_spec();
  spec.networks = {"ib100", "eth10"};
  const auto scenarios = expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 2u * 2u * 2u);  // solvers × networks × lambdas
  for (std::size_t i = 0; i < scenarios.size(); ++i) {
    EXPECT_EQ(scenarios[i].index, static_cast<int>(i));
  }
  // Rightmost axis (lambda) varies fastest; solver slowest.
  EXPECT_EQ(scenarios[0].solver, "newton-admm");
  EXPECT_EQ(scenarios[0].config.network, "ib100");
  EXPECT_DOUBLE_EQ(scenarios[0].config.lambda, 1e-3);
  EXPECT_DOUBLE_EQ(scenarios[1].config.lambda, 1e-2);
  EXPECT_EQ(scenarios[2].config.network, "eth10");
  EXPECT_EQ(scenarios[4].solver, "giant");
  // Base knobs are inherited by every scenario.
  for (const auto& s : scenarios) {
    EXPECT_EQ(s.config.n_train, 120u);
    EXPECT_EQ(s.config.iterations, 3);
  }
}

TEST(SweepExpansion, EmptyAxisThrows) {
  SweepSpec spec = tiny_spec();
  spec.datasets.clear();
  EXPECT_THROW(static_cast<void>(expand_scenarios(spec)), InvalidArgument);
}

TEST(SweepExpansion, PartitionAxisExpandsAndTags) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  apply_sweep_assignment(spec, "partitions", "contiguous, strided ,weighted");
  const auto scenarios = expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].config.partition, "contiguous");
  EXPECT_EQ(scenarios[1].config.partition, "strided");
  EXPECT_EQ(scenarios[2].config.partition, "weighted");
  EXPECT_NE(scenarios[1].tag().find("strided"), std::string::npos);
  // Unknown modes are rejected at parse time, not at run time.
  EXPECT_THROW(apply_sweep_assignment(spec, "partitions", "zigzag"),
               InvalidArgument);
  // The partition axis is part of the journal fingerprint.
  SweepSpec other = tiny_spec();
  other.solvers = {"newton-admm"};
  other.lambdas = {1e-3};
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(other));
}

TEST(SweepExpansion, ScaleMultipliesSampleCountsAtExpansion) {
  SweepSpec spec = tiny_spec();
  apply_sweep_assignment(spec, "scale", "2.5");
  EXPECT_DOUBLE_EQ(spec.scale, 2.5);
  for (const auto& s : expand_scenarios(spec)) {
    EXPECT_EQ(s.config.n_train, 300u);  // round(120 × 2.5)
    EXPECT_EQ(s.config.n_test, 100u);
  }
  // The base counts stay untouched, and scale enters the fingerprint so
  // a paper-scale run never resumes from a small grid's journal.
  EXPECT_EQ(spec.base.n_train, 120u);
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(tiny_spec()));
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "0"), InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "-1"), InvalidArgument);
  EXPECT_THROW(apply_sweep_assignment(spec, "scale", "big"), InvalidArgument);
}

TEST(SweepExpansion, WeakScalingGrowsTrainSetWithWorkers) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  spec.workers = {2, 4, 8};
  apply_sweep_assignment(spec, "weak_scaling", "true");
  const auto scenarios = expand_scenarios(spec);
  ASSERT_EQ(scenarios.size(), 3u);
  EXPECT_EQ(scenarios[0].config.n_train, 240u);  // per-worker 120 × w
  EXPECT_EQ(scenarios[1].config.n_train, 480u);
  EXPECT_EQ(scenarios[2].config.n_train, 960u);
  for (const auto& s : scenarios) EXPECT_EQ(s.config.n_test, 40u);
  // Composes with scale: the per-worker shard is scaled first.
  apply_sweep_assignment(spec, "scale", "0.5");
  EXPECT_EQ(expand_scenarios(spec)[2].config.n_train, 480u);  // 60 × 8
  SweepSpec strong = tiny_spec();
  strong.solvers = {"newton-admm"};
  strong.lambdas = {1e-3};
  strong.workers = {2, 4, 8};
  EXPECT_NE(spec_fingerprint(spec), spec_fingerprint(strong));
  EXPECT_THROW(apply_sweep_assignment(spec, "weak_scaling", "maybe"),
               InvalidArgument);
}

TEST(SweepExpansion, TagIsFilesystemSafeAndUnique) {
  const auto scenarios = expand_scenarios(tiny_spec());
  std::set<std::string> tags;
  for (const auto& s : scenarios) {
    const std::string tag = s.tag();
    EXPECT_EQ(tag.find('/'), std::string::npos);
    EXPECT_EQ(tag.find(' '), std::string::npos);
    tags.insert(tag);
  }
  EXPECT_EQ(tags.size(), scenarios.size());
}

// ------------------------------------------------------------ execution

TEST(SweepRun, ScaledSweepMatchesManuallyEnlargedSpec) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  apply_sweep_assignment(spec, "scale", "2");
  SweepSpec manual = tiny_spec();
  manual.solvers = {"newton-admm"};
  manual.lambdas = {1e-3};
  manual.base.n_train = 240;
  manual.base.n_test = 80;
  SweepOptions options;
  EXPECT_EQ(run_sweep(spec, options).csv_rows(),
            run_sweep(manual, options).csv_rows());
}

TEST(SweepRun, ReportsPeakDatasetBytesAcrossPartitionModes) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  spec.partitions = {"contiguous", "strided", "weighted"};
  SweepOptions options;
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 3u);
  ASSERT_EQ(report.failures(), 0u);
  const auto& contiguous = report.outcomes[0];
  const auto& strided = report.outcomes[1];
  const auto& weighted = report.outcomes[2];
  EXPECT_GT(contiguous.peak_dataset_bytes, 0u);
  // Zero-copy views (contiguous, weighted) hold just the full splits;
  // strided gathers per-rank copies on top.
  EXPECT_EQ(contiguous.peak_dataset_bytes, weighted.peak_dataset_bytes);
  EXPECT_GT(strided.peak_dataset_bytes, contiguous.peak_dataset_bytes);
  // All three modes share one cached full dataset; the strided scenario
  // adds one cached entry for its gather copies (so repeats would not
  // re-gather), hence two generations total.
  EXPECT_EQ(report.cache.generations, 2u);
  const auto rows = report.csv_rows();
  EXPECT_NE(rows[0].find("partition"), std::string::npos);
  EXPECT_NE(rows[0].find("peak_dataset_bytes"), std::string::npos);
}

TEST(SweepRun, FourScenarioSweepIsDeterministicAcrossPoolSizes) {
  const SweepSpec spec = tiny_spec();  // 2 solvers × 2 lambdas = 4 scenarios

  SweepOptions serial;
  serial.jobs = 1;
  const SweepReport a = run_sweep(spec, serial);

  SweepOptions pooled;
  pooled.jobs = 4;
  const SweepReport b = run_sweep(spec, pooled);

  ASSERT_EQ(a.outcomes.size(), 4u);
  ASSERT_EQ(b.outcomes.size(), 4u);
  EXPECT_EQ(a.failures(), 0u);
  EXPECT_EQ(b.failures(), 0u);

  const auto rows_a = a.csv_rows();
  const auto rows_b = b.csv_rows();
  ASSERT_EQ(rows_a.size(), 5u);  // header + one row per scenario
  // Byte-identical aggregation regardless of scheduler parallelism.
  EXPECT_EQ(rows_a, rows_b);

  // Every scenario ran its own configuration.
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    const auto& o = a.outcomes[i];
    EXPECT_TRUE(o.ok);
    EXPECT_EQ(o.scenario.index, static_cast<int>(i));
    EXPECT_EQ(o.result.solver, o.scenario.solver);
    EXPECT_GT(o.result.total_sim_seconds, 0.0);
  }
}

TEST(SweepRun, ProgressCallbackSeesEveryScenario) {
  SweepOptions options;
  options.jobs = 2;
  std::vector<int> seen;
  std::size_t last_total = 0;
  options.on_scenario_done = [&](const ScenarioOutcome& o, std::size_t done,
                                 std::size_t total) {
    seen.push_back(o.scenario.index);
    EXPECT_EQ(done, seen.size());
    last_total = total;
  };
  const auto report = run_sweep(tiny_spec(), options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(last_total, 4u);
  std::sort(seen.begin(), seen.end());
  EXPECT_EQ(seen, (std::vector<int>{0, 1, 2, 3}));
}

TEST(SweepRun, CapturesScenarioFailuresWithoutAborting) {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm", "no-such-solver"};
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.jobs = 2;
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 2u);
  EXPECT_EQ(report.failures(), 1u);
  EXPECT_TRUE(report.outcomes[0].ok);
  EXPECT_FALSE(report.outcomes[1].ok);
  EXPECT_NE(report.outcomes[1].error.find("no-such-solver"),
            std::string::npos);
  const auto rows = report.csv_rows();
  EXPECT_NE(rows[1].find(",ok,"), std::string::npos);
  EXPECT_NE(rows[2].find(",error,"), std::string::npos);
}

TEST(SweepRun, NonFiniteObjectiveIsAFailedRow) {
  // λ = 1e300 drives sync-sgd's objective non-finite.
  const std::pair<const char*, const char*> assignments[] = {
      {"solvers", "sync-sgd"}, {"datasets", "blobs"}, {"workers", "2"},
      {"lambdas", "1e300"},    {"n_train", "200"},    {"n_test", "50"},
      {"iterations", "3"}};
  SweepSpec spec;
  for (const auto& [key, value] : assignments) {
    apply_sweep_assignment(spec, key, value);
  }
  const std::string journal =
      testing::TempDir() + "/nadmm_nonfinite.journal.jsonl";
  SweepOptions options;
  options.journal_path = journal;
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_FALSE(report.outcomes[0].ok);
  EXPECT_NE(report.outcomes[0].error.find("non-finite"), std::string::npos)
      << report.outcomes[0].error;
  EXPECT_NE(report.outcomes[0].error.find("sync-sgd"), std::string::npos);
  // The row failed after its data was sharded; the CSV still reports the
  // failed row exactly as a journal restore of it does.
  options.resume = true;
  const auto restored = run_sweep(spec, options);
  EXPECT_EQ(restored.resumed, 1u);
  EXPECT_EQ(report.csv_rows(), restored.csv_rows());
  std::filesystem::remove(journal);
}

TEST(SweepRun, WritesAggregateReportsAndTraces) {
  const std::string dir = testing::TempDir() + "/nadmm_sweep_out";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);

  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm"};
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.trace_dir = dir + "/traces";
  const auto report = run_sweep(spec, options);
  ASSERT_EQ(report.failures(), 0u);

  report.write_csv(dir + "/report.csv");
  report.write_json(dir + "/report.json");

  std::ifstream csv(dir + "/report.csv");
  std::string line;
  int csv_lines = 0;
  while (std::getline(csv, line)) ++csv_lines;
  EXPECT_EQ(csv_lines, 2);  // header + 1 scenario

  std::ifstream json(dir + "/report.json");
  std::stringstream buffer;
  buffer << json.rdbuf();
  const std::string body = buffer.str();
  EXPECT_EQ(body.front(), '[');
  EXPECT_NE(body.find("\"solver\": \"newton-admm\""), std::string::npos);
  EXPECT_NE(body.find("\"status\": \"ok\""), std::string::npos);

  // One trace CSV per scenario, named by tag.
  const auto trace_path =
      options.trace_dir + "/" + report.outcomes[0].scenario.tag() + ".csv";
  EXPECT_TRUE(std::filesystem::exists(trace_path));
  std::filesystem::remove_all(dir);
}

// ------------------------------------------------------------ caching

TEST(SweepCache, SolverOnlySweepGeneratesItsDatasetExactlyOnce) {
  // Two scenarios differing only in solver must share one dataset copy.
  SweepSpec spec = tiny_spec();
  spec.lambdas = {1e-3};  // 2 solvers × 1 dataset × 1 λ
  data::DatasetProvider provider;
  SweepOptions options;
  options.jobs = 2;
  options.provider = &provider;
  const auto report = run_sweep(spec, options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(provider.stats().generations, 1u);
  EXPECT_EQ(provider.stats().hits + provider.stats().misses, 2u);
}

TEST(SweepCache, CacheBudgetZeroRegeneratesPerScenario) {
  SweepSpec spec = tiny_spec();
  spec.lambdas = {1e-3};
  SweepOptions options;
  options.cache_budget = 0;
  const auto report = run_sweep(spec, options);
  EXPECT_EQ(report.failures(), 0u);
  EXPECT_EQ(report.cache.generations, 0u);  // provider bypassed entirely
}

TEST(SweepCache, CachedAndUncachedSweepsProduceIdenticalReports) {
  const SweepSpec spec = tiny_spec();
  SweepOptions cached;
  cached.jobs = 4;
  SweepOptions uncached;
  uncached.cache_budget = 0;
  EXPECT_EQ(run_sweep(spec, cached).csv_rows(),
            run_sweep(spec, uncached).csv_rows());
}

// ------------------------------------------------------------ resume

TEST(SweepJournal, FingerprintTracksEverySpecAxisAndBaseKnob) {
  const SweepSpec base = tiny_spec();
  SweepSpec other = base;
  other.solvers.push_back("sync-sgd");
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  other = base;
  other.base.seed += 1;
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  other = base;
  other.lambdas = {1e-3, 1e-1};
  EXPECT_NE(spec_fingerprint(base), spec_fingerprint(other));
  EXPECT_EQ(spec_fingerprint(base), spec_fingerprint(tiny_spec()));
}

// The committed grids' fingerprints: figure metadata and resume journals
// depend on these exact values.
TEST(SweepJournal, CommittedSpecFingerprintsAreStable) {
  const std::pair<const char*, const char*> pinned[] = {
      {"fig1_solvers", "22f95bb558c1ee92"},
      {"fig2_epoch_time", "5ea1c5eeba4270d3"},
      {"fig3_speedup", "2f50c0d8858d9794"},
      {"fig4_sgd", "2d03643c939e3899"},
      {"fig5_weak_scaling", "cddd03e70378fecc"},
      {"async_grid", "24952a59b793d0db"},
      {"fault_grid", "1f5044a1122b54bc"},
      {"serving_grid", "69343ca217092852"},
      {"quick", "faeb33e2a9c8a21c"},
  };
  for (const auto& [name, fingerprint] : pinned) {
    const std::string path =
        std::string(NADMM_SOURCE_DIR) + "/sweeps/" + name + ".sweep";
    EXPECT_EQ(spec_fingerprint(parse_sweep_file(path)), fingerprint) << path;
  }
}

/// Four serving scenarios: the latency and throughput columns.
SweepSpec serving_spec() {
  SweepSpec spec = tiny_spec();
  spec.mode = "serving";
  spec.solvers = {"newton-admm"};
  spec.arrivals = {"poisson:500", "bursty:100:2000:0.5:0.2"};
  spec.batch_policies = {"immediate", "deadline:8:0.01"};
  spec.serve_requests = 200;
  spec.base.iterations = 2;
  return spec;
}

/// Four faulty async-admm scenarios: rank waits, the staleness histogram
/// and the wire counters of the metrics map.
SweepSpec faulty_async_spec() {
  SweepSpec spec = tiny_spec();
  spec.solvers = {"async-admm"};
  spec.networks = {"eth1"};
  spec.lambdas = {1e-3};
  spec.stragglers = {"none", "0:2"};
  spec.faults = {"drop:0.2", "drop:0.1+dup:0.1"};
  spec.base.iterations = 2;
  spec.base.checkpoint_every = 2;
  return spec;
}

TEST(SweepJournal, InterruptedThenResumedReportIsByteIdentical) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_resume";
  const std::vector<std::pair<std::string, SweepSpec>> grids = {
      {"train", tiny_spec()},
      {"serving", serving_spec()},
      {"faulty-async", faulty_async_spec()}};
  for (const auto& [name, spec] : grids) {
    SCOPED_TRACE(name);
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const std::string journal = dir + "/report.csv.journal.jsonl";
    ASSERT_EQ(expand_scenarios(spec).size(), 4u);

    SweepOptions reference;
    reference.jobs = 2;
    const auto full = run_sweep(spec, reference);

    SweepOptions interrupted;
    interrupted.journal_path = journal;
    interrupted.max_scenarios = 2;
    const auto partial = run_sweep(spec, interrupted);
    EXPECT_FALSE(partial.complete());
    EXPECT_EQ(partial.executed, 2u);

    SweepOptions resumed;
    resumed.jobs = 4;
    resumed.journal_path = journal;
    resumed.resume = true;
    std::size_t executed_callbacks = 0;
    resumed.on_scenario_done = [&](const ScenarioOutcome&, std::size_t,
                                   std::size_t total) {
      ++executed_callbacks;
      EXPECT_EQ(total, 2u);  // only the two remaining scenarios run
    };
    const auto rest = run_sweep(spec, resumed);
    EXPECT_TRUE(rest.complete());
    EXPECT_EQ(rest.resumed, 2u);
    EXPECT_EQ(rest.executed, 2u);
    EXPECT_EQ(executed_callbacks, 2u);
    for (const auto& o : rest.outcomes) EXPECT_TRUE(o.ok) << o.error;
    // The restored rows carry the grid's distinctive columns.
    const ScenarioOutcome& restored = rest.outcomes[1];
    EXPECT_TRUE(restored.from_journal);
    if (name == "serving") {
      EXPECT_GT(restored.p99_latency_s, 0.0);
      EXPECT_GT(restored.serve_batches, 0u);
    } else if (name == "faulty-async") {
      EXPECT_FALSE(restored.rank_waits.empty());
      EXPECT_FALSE(restored.staleness_hist.empty());
      EXPECT_FALSE(restored.result.metrics.empty());
    }

    EXPECT_EQ(full.csv_rows(), rest.csv_rows());
    // JSON reports must match byte-for-byte as well.
    rest.write_json(dir + "/resumed.json");
    full.write_json(dir + "/full.json");
    std::ifstream a(dir + "/resumed.json"), b(dir + "/full.json");
    std::stringstream sa, sb;
    sa << a.rdbuf();
    sb << b.rdbuf();
    EXPECT_EQ(sa.str(), sb.str());
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, CompletedTagsAreNotReRun) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_skip";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();

  SweepOptions first;
  first.journal_path = journal;
  static_cast<void>(run_sweep(spec, first));

  SweepOptions again;
  again.journal_path = journal;
  again.resume = true;
  data::DatasetProvider provider;
  again.provider = &provider;
  const auto report = run_sweep(spec, again);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 4u);
  EXPECT_EQ(report.executed, 0u);
  // Nothing ran, so nothing was generated.
  EXPECT_EQ(provider.stats().generations, 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, StaleJournalFromDifferentSpecIsRejected) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_stale";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  SweepOptions options;
  options.journal_path = journal;
  options.max_scenarios = 1;
  static_cast<void>(run_sweep(spec, options));

  SweepSpec other = spec;
  other.lambdas = {1e-3, 1e-1};  // same scenario count, different grid
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  EXPECT_THROW(static_cast<void>(run_sweep(other, resume)), InvalidArgument);

  // Without --resume the stale journal is overwritten, not an error.
  SweepOptions fresh;
  fresh.journal_path = journal;
  const auto report = run_sweep(other, fresh);
  EXPECT_TRUE(report.complete());
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, OldJournalVersionIsRejectedOnResume) {
  // A v4 journal predates the faults axis and the wire counters; its
  // outcome records can't rehydrate a current report, so --resume must
  // refuse it with the version named (a rerun without --resume starts
  // fresh).
  const std::string dir = testing::TempDir() + "/nadmm_journal_old";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  const auto scenarios = expand_scenarios(spec);
  {
    std::ofstream out(journal);
    out << "{\"kind\": \"nadmm-sweep-journal\", \"version\": 4, "
        << "\"fingerprint\": \"" << spec_fingerprint(spec)
        << "\", \"scenarios\": " << scenarios.size() << "}\n";
  }
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  try {
    static_cast<void>(run_sweep(spec, resume));
    FAIL() << "v4 journal accepted on --resume";
  } catch (const InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find("unsupported version 4"),
              std::string::npos)
        << e.what();
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, V5JournalIsRejectedWithBothVersionsNamed) {
  // v5 journals carry five fixed wire-counter fields; v6 replaced them
  // with the generic sparse metrics map, so restoring a v5 record would
  // silently drop its counters. The rejection must name both the found
  // and the expected version so the fix (rerun without --resume) is
  // obvious from the message alone.
  const std::string dir = testing::TempDir() + "/nadmm_journal_v5";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  const auto scenarios = expand_scenarios(spec);
  {
    std::ofstream out(journal);
    out << "{\"kind\": \"nadmm-sweep-journal\", \"version\": 5, "
        << "\"fingerprint\": \"" << spec_fingerprint(spec)
        << "\", \"scenarios\": " << scenarios.size() << "}\n";
  }
  SweepOptions resume;
  resume.journal_path = journal;
  resume.resume = true;
  try {
    static_cast<void>(run_sweep(spec, resume));
    FAIL() << "v5 journal accepted on --resume";
  } catch (const InvalidArgument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("unsupported version 5"), std::string::npos) << what;
    EXPECT_NE(what.find("expected 6"), std::string::npos) << what;
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, ErrorOutcomesRoundTripThroughTheJournal) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_error";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";

  SweepSpec spec = tiny_spec();
  spec.solvers = {"newton-admm", "no-such-solver"};
  spec.lambdas = {1e-3};

  SweepOptions first;
  first.journal_path = journal;
  const auto a = run_sweep(spec, first);
  EXPECT_EQ(a.failures(), 1u);

  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto b = run_sweep(spec, resumed);
  EXPECT_EQ(b.resumed, 2u);
  EXPECT_EQ(b.executed, 0u);
  EXPECT_EQ(a.csv_rows(), b.csv_rows());
  EXPECT_FALSE(b.outcomes[1].ok);
  EXPECT_NE(b.outcomes[1].error.find("no-such-solver"), std::string::npos);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, TornFinalLineIsIgnoredOnResume) {
  const std::string dir = testing::TempDir() + "/nadmm_journal_torn";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();

  SweepOptions options;
  options.journal_path = journal;
  options.max_scenarios = 2;
  static_cast<void>(run_sweep(spec, options));
  {
    // Simulate a kill mid-write: a half-written trailing line.
    std::ofstream out(journal, std::ios::app);
    out << "{\"index\": 2, \"tag\": \"trunc";
  }
  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto report = run_sweep(spec, resumed);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 2u);  // the torn line was discarded
  EXPECT_EQ(report.failures(), 0u);
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, EmptyOrTornHeaderJournalResumesAsFreshStart) {
  // A kill inside the truncate-then-write-header window leaves an empty
  // or torn journal; --resume must start fresh, not dead-end.
  const std::string dir = testing::TempDir() + "/nadmm_journal_empty";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();
  for (const char* content : {"", "{\"kind\": \"nadmm-sweep-jour"}) {
    {
      std::ofstream out(journal);
      out << content;
    }
    SweepOptions options;
    options.journal_path = journal;
    options.resume = true;
    const auto report = run_sweep(spec, options);
    EXPECT_TRUE(report.complete());
    EXPECT_EQ(report.resumed, 0u);
    EXPECT_EQ(report.executed, 4u);
  }
  std::filesystem::remove_all(dir);
}

TEST(SweepJournal, LineTornInsideItsFinalNumberIsIgnoredOnResume) {
  // Every field extractor would succeed on this line — strtod happily
  // parses the truncated "1.2" — so only the missing closing brace marks
  // it as torn. Restoring it would silently corrupt the resumed report.
  const std::string dir = testing::TempDir() + "/nadmm_journal_torn_num";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string journal = dir + "/report.csv.journal.jsonl";
  const SweepSpec spec = tiny_spec();
  const auto full = run_sweep(spec, SweepOptions{});

  SweepOptions options;
  options.journal_path = journal;
  options.max_scenarios = 2;
  static_cast<void>(run_sweep(spec, options));
  {
    std::ofstream out(journal, std::ios::app);
    out << "{\"index\": 2, \"tag\": \""
        << expand_scenarios(spec)[2].tag()
        << "\", \"status\": \"ok\", \"iterations\": 3"
        << ", \"final_objective\": 1, \"final_test_accuracy\": 0.5"
        << ", \"total_sim_seconds\": 2, \"avg_epoch_sim_seconds\": 0.1"
        << ", \"total_comm_sim_seconds\": 1.2";  // torn before '}'
  }
  SweepOptions resumed;
  resumed.journal_path = journal;
  resumed.resume = true;
  const auto report = run_sweep(spec, resumed);
  EXPECT_TRUE(report.complete());
  EXPECT_EQ(report.resumed, 2u);  // scenario 2 re-ran instead
  EXPECT_EQ(full.csv_rows(), report.csv_rows());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace nadmm::runner
