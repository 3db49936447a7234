#include "solvers/async_admm.hpp"

#include <algorithm>
#include <climits>
#include <memory>
#include <utility>

#include "comm/async.hpp"
#include "core/admm_worker.hpp"
#include "data/partition.hpp"
#include "la/vector_ops.hpp"
#include "model/metrics.hpp"
#include "model/softmax.hpp"
#include "support/binio.hpp"
#include "support/check.hpp"
#include "support/telemetry.hpp"
#include "support/timer.hpp"

namespace nadmm::solvers {

namespace {

enum : int {
  kTagUpdate = 1,     ///< worker → coordinator: [round, barrier, c.. , ρ]
  kTagConsensus = 2,  ///< coordinator → worker: [z..]
  kTagStop = 3,       ///< coordinator → worker: run is over
};

constexpr std::uint16_t kCheckpointVersion = 1;

/// One applied update, as logged since the last checkpoint: enough to
/// replay the coordinator's commit + reply-gate decisions.
struct CommitEntry {
  int w = 0;
  int round = 0;
  bool flagged = false;
  std::vector<double> packed;  ///< [c ; ρ], dim+1 values
};

/// One consensus delivery a worker applied since the last checkpoint.
struct ReplyEntry {
  int k = 0;              ///< round index passed to apply_consensus
  std::vector<double> z;  ///< the payload the worker copied in
};

std::vector<std::uint8_t> worker_bytes(const core::AdmmWorker& worker) {
  binio::ByteWriter w;
  worker.save_checkpoint(w);
  return w.take();
}

/// The coordinator's state (the event loop is single-threaded): every
/// field its commit rule and reply gate read or write, and the consensus
/// iterate z. The live handler and the kill replay drive the same
/// methods, so replaying the commit log from a checkpoint rebuilds this
/// state exactly.
struct Coordinator {
  Coordinator(int workers, std::size_t dim, double lambda, int tau)
      : staleness(tau),
        rounds(static_cast<std::size_t>(workers), 0),
        worker_round(static_cast<std::size_t>(workers), 0),
        deferred(static_cast<std::size_t>(workers), 0),
        acc(workers, dim, lambda),
        z(dim, 0.0) {
    barrier.reserve(rounds.size());
    ready.reserve(rounds.size());
  }

  /// Fold worker `w`'s contribution for `round` into the consensus;
  /// `flagged` marks a stale-sync barrier round. True when this commit
  /// completes an epoch (size() applied updates).
  bool commit(int w, int round, bool flagged, std::span<const double> packed) {
    rounds[static_cast<std::size_t>(w)] = round;
    acc.apply(w, packed);
    last_w = w;
    last_flagged = flagged;
    ++commits;
    if (commits % rounds.size() != 0) return false;
    ++epochs;
    return true;
  }

  /// The ranks to answer after the last commit, in reply order. A barrier
  /// round parks its worker until the whole cluster arrives; otherwise a
  /// worker more than τ rounds ahead of the slowest is deferred, and the
  /// commit may release deferred ones (rank order). Once `stopping`, it
  /// answers the committer and every parked worker (deferred, barrier).
  std::span<const int> gate(bool stopping) {
    ready.clear();
    if (stopping) {
      ready.push_back(last_w);
      for (std::size_t d = 0; d < deferred.size(); ++d) {
        if (deferred[d]) ready.push_back(static_cast<int>(d));
        deferred[d] = 0;
      }
      ready.insert(ready.end(), barrier.begin(), barrier.end());
      barrier.clear();
      return ready;
    }
    if (last_flagged) {
      barrier.push_back(last_w);
      if (barrier.size() == rounds.size()) {
        ready.assign(barrier.begin(), barrier.end());
        barrier.clear();
      }
      return ready;
    }
    const int min_r = *std::min_element(rounds.begin(), rounds.end());
    const auto w = static_cast<std::size_t>(last_w);
    if (rounds[w] - min_r <= staleness) {
      ready.push_back(last_w);
    } else {
      deferred[w] = 1;
    }
    for (std::size_t d = 0; d < rounds.size(); ++d) {
      if (deferred[d] && rounds[d] - min_r <= staleness) {
        deferred[d] = 0;
        ready.push_back(static_cast<int>(d));
      }
    }
    return ready;
  }

  void save(binio::ByteWriter& w) const {
    w.put_u64(commits);
    w.put_i64(epochs);
    for (const int v : rounds) w.put_i64(v);
    for (const int v : worker_round) w.put_i64(v);
    for (const char v : deferred) w.put_u8(static_cast<std::uint8_t>(v));
    w.put_u64(barrier.size());
    for (const int b : barrier) w.put_i64(b);
    acc.save(w);
    w.put_f64_array(z);
  }

  void restore(binio::ByteReader& r) {
    commits = r.get_u64();
    epochs = static_cast<int>(r.get_i64());
    for (int& v : rounds) v = static_cast<int>(r.get_i64());
    for (int& v : worker_round) v = static_cast<int>(r.get_i64());
    for (char& v : deferred) v = static_cast<char>(r.get_u8());
    barrier.resize(static_cast<std::size_t>(r.get_u64()));
    for (int& b : barrier) b = static_cast<int>(r.get_i64());
    acc.restore(r);
    r.get_f64_array(z, z.size());
  }

  int staleness;                  ///< τ (INT_MAX in stale-sync mode)
  std::vector<int> rounds;        ///< last committed round per worker
  std::vector<int> worker_round;  ///< rounds each worker has started
  std::vector<char> deferred;     ///< reply held by the staleness gate
  std::vector<int> barrier;       ///< arrival order of parked sync rounds
  std::uint64_t commits = 0;
  int epochs = 0;
  core::ConsensusState acc;
  std::vector<double> z;  ///< eq. 7 iterate, refreshed after each commit
  // The last commit, read by gate(), and its reused answer buffer.
  int last_w = 0;
  bool last_flagged = false;
  std::vector<int> ready;
};

std::vector<std::uint8_t> coordinator_bytes(const Coordinator& c) {
  binio::ByteWriter w;
  c.save(w);
  return w.take();
}

}  // namespace

core::RunResult async_admm(comm::SimCluster& cluster,
                           const data::ShardedDataset& data,
                           const AsyncAdmmOptions& options) {
  const core::NewtonAdmmOptions& admm = options.admm;
  NADMM_CHECK(admm.max_iterations >= 1, "async_admm: need >= 1 iteration");
  NADMM_CHECK(admm.lambda >= 0.0, "async_admm: lambda must be >= 0");
  NADMM_CHECK(options.staleness >= 0, "async_admm: staleness must be >= 0");
  NADMM_CHECK(options.sync_every >= 0, "async_admm: sync_every must be >= 0");
  NADMM_CHECK(data.parts() == cluster.size(),
              "async_admm: shard plan does not match the cluster size");
  NADMM_CHECK(options.checkpoint_every >= 0,
              "async_admm: checkpoint_every must be >= 0");
  const comm::FaultSpec fault_spec = comm::FaultSpec::parse(options.fault);
  if (options.kill_rank >= 0) {
    NADMM_CHECK(options.kill_rank < cluster.size(),
                "async_admm: kill rank out of range");
    NADMM_CHECK(options.kill_epoch >= 1,
                "async_admm: kill epoch must be >= 1");
    NADMM_CHECK(options.checkpoint_every > 0,
                "async_admm: a kill needs checkpoints — set "
                "--checkpoint-every > 0");
  }

  const int n = cluster.size();
  const std::size_t dim = data.dim();
  // In stale-sync mode the barrier is the only brake on fast workers.
  const int staleness =
      options.sync_every > 0 ? INT_MAX : options.staleness;

  core::RunResult result;
  result.solver = options.sync_every > 0 ? "stale-sync-admm" : "async-admm";

  // --- untimed setup: shards, workers, diagnostic objective ---
  std::vector<std::unique_ptr<core::AdmmWorker>> workers;
  workers.reserve(static_cast<std::size_t>(n));
  for (int r = 0; r < n; ++r) {
    workers.push_back(std::make_unique<core::AdmmWorker>(
        data.ranks[static_cast<std::size_t>(r)].train, admm, dim));
  }
  const bool eval_accuracy = admm.evaluate_accuracy && data.test_samples > 0;

  // Coordinator diagnostics. Materialized plans evaluate the full splits
  // (identical numerics to the pre-shard-plan solver); streamed sources
  // have no full matrix, so the objective is the per-shard sum (rank
  // order) and accuracy is the summed per-shard hit count — the same
  // value up to float association, and exactly the same hit count.
  std::unique_ptr<model::SoftmaxObjective> global;
  if (data.has_full()) {
    global = std::make_unique<model::SoftmaxObjective>(data.full_train,
                                                       /*l2_lambda=*/0.0);
  }
  std::vector<std::unique_ptr<model::SoftmaxObjective>> test_evals;
  if (eval_accuracy && !data.has_full()) {
    for (int r = 0; r < n; ++r) {
      const data::Dataset& shard = data.ranks[static_cast<std::size_t>(r)].test;
      test_evals.push_back(
          shard.empty() ? nullptr
                        : std::make_unique<model::SoftmaxObjective>(shard, 0.0));
    }
  }
  const auto diag_objective = [&](std::span<const double> zv) {
    if (global != nullptr) return global->value(zv);
    double sum = 0.0;
    for (auto& w : workers) sum += w->objective().value(zv);
    return sum;
  };
  const auto diag_accuracy = [&](std::span<const double> zv) {
    if (data.has_full()) return model::accuracy(data.full_test, zv);
    double hits = 0.0;
    for (int r = 0; r < n; ++r) {
      auto& eval = test_evals[static_cast<std::size_t>(r)];
      if (eval == nullptr) continue;
      hits += eval->accuracy(zv) *
              static_cast<double>(
                  data.ranks[static_cast<std::size_t>(r)].test.num_samples());
    }
    return hits / static_cast<double>(data.test_samples);
  };

  Coordinator coord(n, dim, admm.lambda, staleness);
  bool stopping = false;
  double prev_sim_time = 0.0;
  std::vector<std::uint64_t>& hist = result.staleness_hist;
  WallTimer wall;

  // --- checkpoint/restart state (all untimed: crash-consistency
  // machinery, not part of the simulated protocol cost) ---
  const bool checkpointing = options.checkpoint_every > 0;
  std::vector<std::uint8_t> checkpoint;      ///< last serialized snapshot
  std::uint64_t checkpoint_commits = 0;      ///< commits at that snapshot
  std::vector<CommitEntry> commit_log;       ///< updates since the snapshot
  std::vector<std::vector<ReplyEntry>> reply_log(static_cast<std::size_t>(n));
  bool pending_kill = false;
  bool killed = false;

  comm::AsyncEngine engine(cluster.devices(), cluster.network(),
                           cluster.omp_threads_per_rank());
  if (options.fault != "none" && !options.fault.empty()) {
    engine.set_faults(fault_spec, options.seed);
  }

  // One local Newton round on this rank, then ship the contribution.
  const auto do_round = [&](comm::AsyncRank& ctx) {
    const int r = ctx.rank();
    const auto packed = workers[static_cast<std::size_t>(r)]->local_step();
    const int round = ++coord.worker_round[static_cast<std::size_t>(r)];
    std::vector<double> payload(dim + 3);
    payload[0] = round;
    payload[1] =
        (options.sync_every > 0 && round % options.sync_every == 0) ? 1.0 : 0.0;
    std::copy(packed.begin(), packed.end(), payload.begin() + 2);
    ctx.send(0, kTagUpdate, std::move(payload));
  };

  // Answer a worker: the fresh consensus, or stop once the run is over.
  const auto reply = [&](comm::AsyncRank& ctx, int to) {
    if (stopping) {
      ctx.send(to, kTagStop, {});
    } else {
      ctx.send(to, kTagConsensus, coord.z);
    }
  };

  // Serialize the full recoverable state: coordinator bookkeeping, the
  // consensus accumulator, and every worker's iterate snapshot. Taken at
  // handler exit (the triggering update fully applied), so replaying the
  // since-checkpoint logs reproduces any later handler state exactly.
  const auto take_checkpoint = [&] {
    binio::ByteWriter w;
    w.put_u16(kCheckpointVersion);
    coord.save(w);
    for (int r = 0; r < n; ++r) {
      binio::ByteWriter inner;
      workers[static_cast<std::size_t>(r)]->save_checkpoint(inner);
      w.put_u64(inner.size());
      w.put_bytes(inner.bytes());
    }
    checkpoint = w.take();
    checkpoint_commits = coord.commits;
    commit_log.clear();
    for (auto& log : reply_log) log.clear();
    result.add_metric("checkpoints", 1);
    telem::count("checkpoints");
    telem::instant("fault", "checkpoint");
  };

  const auto maybe_checkpoint = [&](comm::AsyncRank& ctx) {
    if (!checkpointing || stopping) return;
    if (coord.commits - checkpoint_commits <
        static_cast<std::uint64_t>(options.checkpoint_every)) {
      return;
    }
    ctx.clock().pause();  // crash-consistency machinery is untimed
    take_checkpoint();
    ctx.clock().resume();
  };

  // Kill-and-rejoin: discard the victim's live state, restore from the
  // last checkpoint, replay the since-checkpoint logs, and prove the
  // rebuilt state byte-identical to what was lost before adopting it.
  const auto perform_kill = [&](comm::AsyncRank& ctx) {
    pending_kill = false;
    killed = true;
    const int victim = options.kill_rank;
    NADMM_CHECK(!checkpoint.empty(),
                "async_admm: kill at epoch " +
                    std::to_string(options.kill_epoch) +
                    " precedes the first checkpoint — lower "
                    "--checkpoint-every");
    ctx.clock().pause();
    binio::ByteReader r(checkpoint, "solver checkpoint");
    const std::uint16_t version = r.get_u16();
    NADMM_CHECK(version == kCheckpointVersion,
                "solver checkpoint: unsupported version " +
                    std::to_string(version));
    Coordinator replica(n, dim, admm.lambda, staleness);
    replica.restore(r);

    // Rebuild the victim worker over the same shard/config and replay
    // every consensus delivery it applied since the checkpoint.
    std::unique_ptr<core::AdmmWorker> rejoined;
    for (int rank = 0; rank < n; ++rank) {
      const std::uint64_t len = r.get_u64();
      const auto record = r.get_raw(static_cast<std::size_t>(len));
      if (rank != victim) continue;
      rejoined = std::make_unique<core::AdmmWorker>(
          data.ranks[static_cast<std::size_t>(victim)].train, admm, dim);
      binio::ByteReader wr(record, "worker checkpoint record");
      rejoined->restore_checkpoint(wr);
      wr.expect_end();
    }
    r.expect_end();
    for (const ReplyEntry& e : reply_log[static_cast<std::size_t>(victim)]) {
      rejoined->snapshot_z_prev();
      std::copy(e.z.begin(), e.z.end(), rejoined->z().begin());
      rejoined->apply_consensus(e.k);
      rejoined->local_step();
    }
    // The live worker it replaces holds a warm softmax forward pass at
    // its current x (the last point its Newton-CG evaluated); a cold
    // cache would make the rejoined worker's next local_step recompute
    // it, leaking extra flops into the simulated timeline. Warm it here
    // on the paused clock so the flop ledger matches a run that never
    // lost the rank.
    static_cast<void>(rejoined->objective().value(rejoined->x()));
    NADMM_CHECK(
        worker_bytes(*workers[static_cast<std::size_t>(victim)]) ==
            worker_bytes(*rejoined),
        "async_admm kill-rejoin: worker replay diverged from the lost state");
    workers[static_cast<std::size_t>(victim)] = std::move(rejoined);

    if (victim == 0) {
      // The coordinator died too: replay the commit log through the same
      // commit rule and gate the live handler ran, then prove the rebuilt
      // state and iterate byte-identical before adopting them.
      for (const CommitEntry& e : commit_log) {
        static_cast<void>(replica.commit(e.w, e.round, e.flagged, e.packed));
        static_cast<void>(replica.gate(/*stopping=*/false));
      }
      for (std::size_t i = 0; i < reply_log.size(); ++i) {
        replica.worker_round[i] += static_cast<int>(reply_log[i].size());
      }
      replica.acc.compute_z(replica.z);
      NADMM_CHECK(coordinator_bytes(replica) == coordinator_bytes(coord),
                  "async_admm kill-rejoin: coordinator replay diverged");
      coord = std::move(replica);
    }
    result.add_metric("restores", 1);
    telem::count("restores");
    telem::instant("fault", "restore");
    ctx.clock().resume();
  };

  const auto coordinator_handle = [&](comm::AsyncRank& ctx,
                                      const comm::AsyncMessage& msg) {
    const int w = msg.from;
    if (stopping) {
      reply(ctx, w);
      return;
    }
    // Deferred to the start of the next update so the kill lands on a
    // clean handler boundary (the logs cut exactly at applied updates).
    if (pending_kill) perform_kill(ctx);
    // Observed staleness: completed rounds ahead of the slowest worker
    // when this update's round started. The reply gate bounded it then,
    // and the minimum only grows, so hist's top bucket stays <= τ.
    const auto& rounds = coord.rounds;
    const int min_before = *std::min_element(rounds.begin(), rounds.end());
    const auto s = static_cast<std::size_t>(
        rounds[static_cast<std::size_t>(w)] - min_before);
    if (hist.size() <= s) hist.resize(s + 1, 0);
    ++hist[s];

    const int round = static_cast<int>(msg.payload[0]);
    const bool flagged = msg.payload[1] != 0.0;
    const auto packed = std::span<const double>(msg.payload).subspan(2);
    const bool epoch_end = coord.commit(w, round, flagged, packed);
    coord.acc.compute_z(coord.z);
    if (checkpointing) {
      commit_log.push_back({w, round, flagged,
                            std::vector<double>(packed.begin(), packed.end())});
    }

    if (epoch_end) {
      // --- epoch diagnostics on the paused clock ---
      ctx.clock().pause();
      core::IterationStats it;
      it.iteration = coord.epochs;
      it.objective = diag_objective(coord.z);
      if (admm.lambda > 0.0) {
        it.objective += 0.5 * admm.lambda * la::nrm2_sq(coord.z);
      }
      it.test_accuracy = eval_accuracy ? diag_accuracy(coord.z) : -1.0;
      it.sim_seconds = ctx.now();
      it.wall_seconds = wall.seconds();
      it.epoch_sim_seconds = it.sim_seconds - prev_sim_time;
      it.comm_sim_seconds = ctx.clock().comm_seconds();
      it.rho_mean = coord.acc.rho_sum() / n;
      result.add_epoch(it);
      prev_sim_time = it.sim_seconds;
      if (coord.epochs >= admm.max_iterations ||
          (admm.objective_target > 0.0 &&
           it.objective <= admm.objective_target)) {
        stopping = true;
      }
      if (options.kill_rank >= 0 && !killed && !stopping &&
          coord.epochs == options.kill_epoch) {
        pending_kill = true;
      }
      // Epoch boundary: sample every registered telemetry counter as a
      // Chrome counter event (virtual-time x-axis in the trace).
      telem::snapshot_metrics();
      ctx.clock().resume();
    }

    for (const int d : coord.gate(stopping)) reply(ctx, d);
    maybe_checkpoint(ctx);
  };

  const auto reports = engine.run(
      [&](comm::AsyncRank& ctx) { do_round(ctx); },
      [&](comm::AsyncRank& ctx, const comm::AsyncMessage& msg) {
        switch (msg.tag) {
          case kTagUpdate:
            coordinator_handle(ctx, msg);
            break;
          case kTagConsensus: {
            if (checkpointing) {
              reply_log[static_cast<std::size_t>(ctx.rank())].push_back(
                  {coord.worker_round[static_cast<std::size_t>(ctx.rank())] - 1,
                   msg.payload});
            }
            auto& worker = *workers[static_cast<std::size_t>(ctx.rank())];
            worker.snapshot_z_prev();
            std::copy(msg.payload.begin(), msg.payload.end(),
                      worker.z().begin());
            worker.apply_consensus(
                coord.worker_round[static_cast<std::size_t>(ctx.rank())] - 1);
            do_round(ctx);
            break;
          }
          case kTagStop:
            ctx.halt();
            break;
          default:
            NADMM_CHECK(false, "async_admm: unknown message tag");
        }
      });

  result.x = coord.z;
  result.rank_wait_seconds.reserve(reports.size());
  for (const auto& r : reports) {
    result.rank_wait_seconds.push_back(r.wait_seconds);
    result.add_metric("retransmits", r.retransmits);
    result.add_metric("gaps_detected", r.gaps_detected);
    result.add_metric("messages_dropped", r.messages_dropped);
  }
  return result;
}

}  // namespace nadmm::solvers
