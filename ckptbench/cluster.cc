// The cluster workloads: ClusterCheckpointEngine with 4 ranks, each holding
// 4 MiB of dense shards and 16 x 1 MiB experts (80 MiB of logical state per
// event), restored with PlanClusterRestore + ExecuteClusterRestore.
//
//   cluster-dedup-mem   MemoryStore, dedup on, delta off. Each event
//                       rewrites the dense shards and 8 of the 64 experts
//                       (round robin); the other 56 stay bit-identical, so
//                       whole-blob dedup does the work. No file I/O.
//   cluster-delta-file  FileStore, delta on. Every shard changes one 64 KiB
//                       chunk per event, so dedup never fires; chains grow
//                       to max_delta_chain, are forced back to a full
//                       write, and restore walks them.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "ckpt/cluster_engine.h"
#include "core/cluster_recovery.h"
#include "core/placement.h"
#include "harness.h"
#include "obs/journal.h"
#include "probes.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"

namespace ckptbench {

namespace {

constexpr std::size_t kRanks = 4;
constexpr std::size_t kExpertsPerRank = 16;
constexpr std::size_t kDenseBytes = 4 << 20;
constexpr std::size_t kExpertBytes = 1 << 20;
constexpr std::size_t kShards = kRanks * (1 + kExpertsPerRank);
constexpr std::size_t kExpertsChangedPerEvent = 8;
constexpr std::size_t kChunkBytes = 64 << 10;
constexpr std::size_t kMaxDeltaChain = 8;
constexpr std::size_t kRestoresPerRound = 3;
constexpr std::size_t kRecoveriesPerRound = 2;

/**
 * Checkpoint events per round after the initial full one. The delta
 * workload ends a round one event short of a forced full write, so the
 * restores walk chains at their longest (8 deltas on a full blob).
 */
std::size_t
EventsPerRound(bool delta_file) {
    return delta_file ? kMaxDeltaChain + 1 + kMaxDeltaChain : 40;
}

std::string
RankKey(std::size_t rank, const std::string& key) {
    return "rank" + std::to_string(rank) + "/" + key;
}

/** The harness's own copy of every shard's live bytes, by plan item key. */
struct LiveState {
    moc::ShardPlan plan{kRanks};
    std::map<std::string, moc::Blob> blobs;
    /** Plan item key -> "rank<r>/<key>" as the engine names it. */
    std::map<std::string, std::string> rank_key;
    std::vector<std::string> dense;
    std::vector<std::string> experts;

    explicit LiveState(std::uint64_t seed) {
        for (std::size_t r = 0; r < kRanks; ++r) {
            Add(r, "dense/" + std::to_string(r), kDenseBytes, seed, dense);
            for (std::size_t j = 0; j < kExpertsPerRank; ++j) {
                Add(r, "expert/" + std::to_string(r * kExpertsPerRank + j) + "/w",
                    kExpertBytes, seed, experts);
            }
        }
    }

    void Add(std::size_t rank, const std::string& key, std::size_t bytes,
             std::uint64_t seed, std::vector<std::string>& group) {
        plan.Add(rank, {key, bytes, false});
        moc::Blob blob(bytes);
        FillRandom(blob, 0, bytes, seed ^ std::hash<std::string>{}(key));
        blobs.emplace(key, std::move(blob));
        rank_key.emplace(key, RankKey(rank, key));
        group.push_back(key);
    }

    /** Rewrites @p key entirely. */
    void Rewrite(const std::string& key, std::uint64_t seed) {
        moc::Blob& blob = blobs.at(key);
        FillRandom(blob, 0, blob.size(), seed);
    }

    /** Rewrites one chunk of @p key, chosen from @p rng. */
    void TouchChunk(const std::string& key, SplitMix64& rng) {
        moc::Blob& blob = blobs.at(key);
        const std::size_t chunk = rng.Below(blob.size() / kChunkBytes);
        FillRandom(blob, chunk * kChunkBytes, (chunk + 1) * kChunkBytes,
                   rng.Next());
    }

    std::vector<const moc::Blob*> Shards() const {
        std::vector<const moc::Blob*> out;
        for (const auto& [key, blob] : blobs) {
            out.push_back(&blob);
        }
        return out;
    }
};

/** Samples collected over every round of one run. */
struct Samples {
    std::vector<double> ckpt_ms;
    std::vector<double> written_mib;
    std::vector<double> restore_ms;
    std::vector<double> restore_read_mib;
    std::vector<double> recover_ms;
    // Per-layer.
    std::vector<double> serialize_ms;
    std::vector<double> snapshot_ms;
    std::vector<double> drain_ms;
    std::vector<double> barrier_ms;
    std::vector<double> plan_ms;
    std::vector<double> exec_ms;
    std::vector<double> first_tenth_ms;
    std::vector<double> last_tenth_ms;
    double shards_written = 0;
    double shards_deduped = 0;
    double shards_delta = 0;
    double forced_full = 0;
    std::size_t events = 0;
    std::vector<double> traced_ckpt_ms;
    std::vector<double> untraced_ckpt_ms;
    std::map<std::string, double> self_ms;
    std::size_t traced_events = 0;
    ManifestProbe manifest;
};

/**
 * Checks every delta record and full write the event put: a key's chain
 * never exceeds max_delta_chain deltas before a full write, and a delta
 * record stays under the size the harness's own changed-chunk count allows.
 */
bool
CheckDeltaPuts(const std::vector<std::pair<std::string, std::size_t>>& puts,
               std::map<std::string, std::size_t>& chain,
               const LiveState& live) {
    static const std::string kDeltaSuffix = ".delta";
    bool ok = true;
    for (const auto& [physical, size] : puts) {
        const bool is_delta =
            physical.size() > kDeltaSuffix.size() &&
            physical.compare(physical.size() - kDeltaSuffix.size(),
                             kDeltaSuffix.size(), kDeltaSuffix) == 0;
        const std::size_t at = physical.rfind('@');
        if (at == std::string::npos) {
            continue;  // meta/manifest
        }
        const std::string key = physical.substr(0, at);
        if (!is_delta) {
            chain[key] = 0;
            continue;
        }
        if (++chain[key] > kMaxDeltaChain) {
            std::fprintf(stderr, "check: %s chain exceeds %zu deltas\n",
                         key.c_str(), kMaxDeltaChain);
            ok = false;
        }
        // The harness changes exactly one chunk per shard per event.
        const std::string item = key.substr(key.find('/') + 1);
        const std::size_t chunks = live.blobs.at(item).size() / kChunkBytes;
        const std::size_t bound = kChunkBytes + (chunks + 7) / 8 + 64;
        if (size > bound) {
            std::fprintf(stderr, "check: delta %s is %zu bytes > bound %zu\n",
                         physical.c_str(), size, bound);
            ok = false;
        }
    }
    return ok;
}

/** Restored bytes equal the live copy for every shard the plan covers. */
bool
CheckRestore(const moc::ClusterRestorePlan& plan,
             const moc::ClusterRestoreResult& restored, const LiveState& live,
             std::size_t generation, std::size_t dead_rank) {
    bool ok = restored.generation == generation && restored.damaged.empty() &&
              restored.degraded.empty() && plan.missing.empty() &&
              plan.shards.size() == kShards;
    std::map<std::string, const moc::Blob*> by_rank_key;
    for (const auto& [item, rank_key] : live.rank_key) {
        by_rank_key[rank_key] = &live.blobs.at(item);
    }
    const std::string dead_prefix = "rank" + std::to_string(dead_rank) + "/";
    for (const auto& shard : plan.shards) {
        const auto want = by_rank_key.find(shard.key);
        const auto got = restored.blobs.find(shard.target_key);
        if (want == by_rank_key.end() || got == restored.blobs.end() ||
            got->second != *want->second ||
            (dead_rank < kRanks && shard.target_key.rfind(dead_prefix, 0) == 0)) {
            std::fprintf(stderr, "check: restored %s -> %s differs\n",
                         shard.key.c_str(), shard.target_key.c_str());
            ok = false;
        }
    }
    return ok;
}

/** One round: a fresh store and engine, its events, restores and recoveries. */
void
RunRound(const Options& options, bool delta_file, std::size_t round,
         bool traced, Samples& s, Result& result, LiveState& live) {
    const bool first_round = round == 0;
    const ScratchDir dir(options.root / ("round" + std::to_string(round)));
    std::unique_ptr<moc::ObjectStore> backing;
    if (delta_file) {
        backing = std::make_unique<moc::FileStore>(dir.path() / "store");
    } else {
        backing = std::make_unique<moc::MemoryStore>();
    }
    CountingStore store(*backing);
    moc::AgentCostModel cost;
    cost.time_scale = 0.0;  // no modeled sleep inside measured time
    moc::ClusterEngineOptions engine_options;
    engine_options.dedup = true;
    engine_options.delta = delta_file;
    engine_options.delta_chunk_bytes = kChunkBytes;
    engine_options.max_delta_chain = kMaxDeltaChain;
    engine_options.verify = true;
    moc::ClusterCheckpointEngine engine(store, kRanks, cost, engine_options);
    const moc::BlobProvider provider = [&live](const moc::ShardItem& item) {
        return live.blobs.at(item.key);
    };
    SplitMix64 rng(options.seed * 0x9E37 + round);
    std::map<std::string, std::size_t> chain;
    if (traced) {
        SetTracing(true);
    }

    // Initial full event: part of set-up in the first round.
    std::size_t iteration = 1;
    {
        const moc::ClusterRunStats stats = engine.Execute(live.plan, provider,
                                                          iteration);
        const bool ok = stats.sealed && stats.persist_failures == 0 &&
                        stats.keys_persisted == kShards;
        result.Op(ok, !ok);
        CheckDeltaPuts(store.TakePutLog(), chain, live);
    }
    if (first_round && !options.trace) {
        const double setup_s = MsSince(options.process_start) / 1e3;
        result.Add("setup_s", setup_s, "s");
    }

    const std::size_t events = EventsPerRound(delta_file);
    const std::size_t tenth = std::max<std::size_t>(1, events / 10);
    std::vector<double> round_ms;
    for (std::size_t e = 0; e < events; ++e) {
        ++iteration;
        if (delta_file) {
            for (const auto& key : live.dense) {
                live.TouchChunk(key, rng);
            }
            for (const auto& key : live.experts) {
                live.TouchChunk(key, rng);
            }
        } else {
            for (const auto& key : live.dense) {
                live.Rewrite(key, rng.Next());
            }
            for (std::size_t j = 0; j < kExpertsChangedPerEvent; ++j) {
                const std::size_t pick =
                    ((iteration - 2) * kExpertsChangedPerEvent + j) %
                    live.experts.size();
                live.Rewrite(live.experts[pick], rng.Next());
            }
        }
        const std::uint64_t put_before = store.bytes_put();
        const auto start = Clock::now();
        const moc::ClusterRunStats stats =
            engine.Execute(live.plan, provider, iteration);
        const double ms = MsSince(start);
        const auto puts = store.TakePutLog();

        bool checks = stats.generation == iteration;
        if (delta_file) {
            // Every shard changed, so every shard is written, full or delta.
            checks = checks && stats.keys_deduped == 0 &&
                     stats.keys_persisted == kShards &&
                     CheckDeltaPuts(puts, chain, live);
        } else {
            const std::size_t changed =
                live.dense.size() + kExpertsChangedPerEvent;
            checks = checks && stats.keys_persisted == changed &&
                     stats.keys_deduped == kShards - changed;
        }
        const bool ok = stats.sealed && stats.persist_failures == 0 && checks;
        result.Op(ok, !checks);

        s.ckpt_ms.push_back(ms);
        round_ms.push_back(ms);
        (traced ? s.traced_ckpt_ms : s.untraced_ckpt_ms).push_back(ms);
        s.written_mib.push_back(
            static_cast<double>(store.bytes_put() - put_before) / kMiB);
        double serialize = 0.0;
        for (double t : stats.per_rank_serialize) {
            serialize = std::max(serialize, t);
        }
        s.serialize_ms.push_back(serialize * 1e3);
        s.snapshot_ms.push_back(stats.snapshot_makespan * 1e3);
        s.drain_ms.push_back(
            (stats.total_makespan - stats.snapshot_makespan) * 1e3);
        s.barrier_ms.push_back(stats.barrier_wait * 1e3);
        s.shards_written += static_cast<double>(stats.keys_persisted);
        s.shards_deduped += static_cast<double>(stats.keys_deduped);
        s.shards_delta += static_cast<double>(stats.keys_delta);
        s.forced_full += static_cast<double>(stats.forced_full);
        ++s.events;
        if (traced) {
            ++s.traced_events;
        }
    }
    s.first_tenth_ms.insert(s.first_tenth_ms.end(), round_ms.begin(),
                            round_ms.begin() + static_cast<long>(tenth));
    s.last_tenth_ms.insert(s.last_tenth_ms.end(),
                           round_ms.end() - static_cast<long>(tenth),
                           round_ms.end());

    // Restore the newest sealed generation into fresh state, then recover
    // onto the survivors of one rank failure (world-size independent
    // restore through a rank remap).
    const std::size_t restores = kRestoresPerRound + kRecoveriesPerRound;
    for (std::size_t i = 0; i < restores; ++i) {
        const bool recovery = i >= kRestoresPerRound;
        const std::size_t dead = recovery ? (round + i) % kRanks : kRanks;
        moc::RankRemap remap;
        if (recovery) {
            std::vector<std::size_t> survivors;
            for (std::size_t r = 0; r < kRanks; ++r) {
                if (r != dead) {
                    survivors.push_back(r);
                }
            }
            remap = moc::BuildRankRemap(kRanks, survivors);
        }
        const std::uint64_t got_before = store.bytes_got();
        const auto start = Clock::now();
        const auto plan = moc::PlanClusterRestore(
            engine.manifest(), std::nullopt, recovery ? &remap : nullptr);
        const double plan_ms = MsSince(start);
        bool ok = plan.has_value();
        if (ok) {
            const auto exec_start = Clock::now();
            const moc::ClusterRestoreResult restored =
                moc::ExecuteClusterRestore(engine.manifest(), store, *plan);
            const double exec_ms = MsSince(exec_start);
            const double total_ms = MsSince(start);
            ok = CheckRestore(*plan, restored, live, iteration, dead);
            if (recovery) {
                s.recover_ms.push_back(total_ms);
            } else {
                s.restore_ms.push_back(total_ms);
                s.restore_read_mib.push_back(
                    static_cast<double>(store.bytes_got() - got_before) / kMiB);
                s.plan_ms.push_back(plan_ms);
                s.exec_ms.push_back(exec_ms);
            }
        }
        result.Op(ok, !ok);
    }

    if (traced) {
        const auto& tracer = moc::obs::Tracer::Instance();
        for (const auto& [name, ms] : SpanSelfMs(tracer.Collect())) {
            s.self_ms[name] += ms;
        }
        SetTracing(false);
    }
    if (options.trace) {
        s.manifest = ProbeManifest(engine.manifest());
    }
    moc::obs::EventJournal::Instance().Clear();
}

void
AddLayerMetrics(const Options& options, const Samples& s,
                const LiveState& live, Result& out) {
    AddUtilProbes(live.Shards(), out);
    const ScratchDir probe_dir(options.root / "probe");
    const bool probes_ok = AddStorageProbes(live.Shards(), kChunkBytes,
                                            probe_dir.path(), options.seed, out);
    out.Op(probes_ok, !probes_ok);
    AddManifestMetrics(s.manifest, s.first_tenth_ms, s.last_tenth_ms, out);
    // The cluster path has no model to serialize.
    out.Add("tensor.serialize_ms", 0.0, "ms");
    const double events = static_cast<double>(std::max<std::size_t>(1, s.events));
    out.Add("ckpt.serialize_ms", Median(s.serialize_ms), "ms");
    out.Add("ckpt.snapshot_makespan_ms", Median(s.snapshot_ms), "ms");
    out.Add("ckpt.persist_drain_ms", Median(s.drain_ms), "ms");
    out.Add("ckpt.shards_written", s.shards_written / events, "count");
    out.Add("ckpt.shards_deduped", s.shards_deduped / events, "count");
    out.Add("ckpt.shards_delta", s.shards_delta / events, "count");
    out.Add("ckpt.forced_full", s.forced_full / events, "count");
    out.Add("net.barrier_wait_ms", Median(s.barrier_ms), "ms");
    out.Add("core.restore_plan_ms", Median(s.plan_ms), "ms");
    out.Add("core.restore_exec_ms", Median(s.exec_ms), "ms");
    out.Add("core.recover_mem_mib", 0.0, "MiB");
    out.Add("core.recover_storage_mib", Median(s.restore_read_mib), "MiB");
    // No training loop on this path.
    out.Add("nn.train_step_ms", 0.0, "ms");
    out.Add("nn.ckpt_overhead_frac", 0.0, "ratio");
    AddSpanMetrics(s.self_ms, s.traced_events, Median(s.traced_ckpt_ms),
                   Median(s.untraced_ckpt_ms), out);
}

}  // namespace

Result
RunCluster(const Options& options, bool delta_file) {
    Result result;
    Samples s;
    LiveState live(options.seed);
    const auto start = Clock::now();
    // Whole rounds until the time is up. A traced run alternates untraced
    // and traced rounds, so the tracing overhead compares like with like.
    const std::size_t round_step = options.trace ? 2 : 1;
    std::size_t round = 0;
    do {
        for (std::size_t i = 0; i < round_step; ++i, ++round) {
            RunRound(options, delta_file, round, options.trace && i == 1, s,
                     result, live);
        }
    } while (MsSince(start) < options.seconds * 1e3);

    const double state_mib =
        static_cast<double>(kRanks * (kDenseBytes + kExpertsPerRank * kExpertBytes)) /
        kMiB;
    std::fprintf(stderr,
                 "%zu rounds, %zu events; ckpt median %.2f ms = %.3f GB/s of "
                 "%.0f MiB logical state\n",
                 round, s.events, Median(s.ckpt_ms),
                 state_mib * kMiB / (Median(s.ckpt_ms) * 1e6), state_mib);
    if (options.trace) {
        AddLayerMetrics(options, s, live, result);
        return result;
    }
    result.Add("ckpt_ms", Median(s.ckpt_ms), "ms");
    result.Add("recover_ms", Median(s.recover_ms), "ms");
    result.Add("restore_ms", Median(s.restore_ms), "ms");
    result.Add("written_mib_per_ckpt", Median(s.written_mib), "MiB");
    result.Add("restore_read_mib", Median(s.restore_read_mib), "MiB");
    return result;
}

}  // namespace ckptbench
