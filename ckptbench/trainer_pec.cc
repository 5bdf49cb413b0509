// The trainer-pec workload: real MoE LM training with PEC checkpointing
// through MocCheckpointSystem into a FileStore, a node failure at a fixed
// interval (alternating nodes), and manifest cold starts at the end of each
// round. This is the only workload on the MocCheckpointSystem path:
// serialize, MemoryStore snapshots, ResilientStore verify-after-write,
// generation twins and manifest pruning.

#include <algorithm>
#include <cstdio>
#include <memory>

#include "core/cold_start.h"
#include "core/moc_system.h"
#include "core/two_level.h"
#include "data/corpus.h"
#include "harness.h"
#include "nn/adam.h"
#include "nn/model.h"
#include "obs/journal.h"
#include "probes.h"
#include "storage/file_store.h"

namespace ckptbench {

namespace {

// 16 DP/EP ranks on 2 nodes; PEC with K_snapshot = 4, K_persist = 2.
constexpr std::size_t kRanks = 16;
constexpr std::size_t kGpusPerNode = 8;
constexpr std::size_t kExperts = 16;
constexpr std::size_t kKSnapshot = 4;
constexpr std::size_t kKPersist = 2;
constexpr std::size_t kICkpt = 2;
constexpr std::size_t kEventsPerRound = 16;
/**
 * A node fails one iteration after every kFaultEvery-th event, alternating
 * between the two nodes. Node 0 and node 1 recoveries cost different
 * amounts, so one recover_ms sample is the mean of a node 0 / node 1 pair:
 * a median over single recoveries would sit in the gap between two modes.
 */
constexpr std::size_t kFaultEvery = 4;
static_assert(kEventsPerRound / kFaultEvery % 2 == 0, "whole node pairs");
constexpr std::size_t kColdStartsPerRound = 3;
/** PEC staleness bound: ceil(N / K_persist) x i_ckpt iterations. */
constexpr std::size_t kStalenessBound =
    (kExperts + kKPersist - 1) / kKPersist * kICkpt;
constexpr std::size_t kBatch = 1;
constexpr std::size_t kSeq = 8;

moc::LmConfig
ModelConfig(std::uint64_t seed) {
    moc::LmConfig cfg;
    cfg.vocab = 256;
    cfg.max_seq = kSeq;
    cfg.hidden = 128;
    cfg.num_heads = 4;
    cfg.head_dim = 32;
    cfg.num_layers = 4;
    cfg.num_experts = kExperts;
    cfg.seed = seed;
    return cfg;
}

/** Digest of one group's weights and both Adam moments. */
Digest
GroupDigest(const moc::ParamGroup& group) {
    Digest d;
    for (const moc::Parameter* p : group.params) {
        const std::size_t bytes = p->size() * sizeof(float);
        d = DigestBytes(d, p->value().data(), bytes);
        d = DigestBytes(d, p->adam_m().data(), bytes);
        d = DigestBytes(d, p->adam_v().data(), bytes);
    }
    return d;
}

using StateDigests = std::map<std::string, Digest>;

StateDigests
DigestModel(moc::MoeTransformerLm& model) {
    StateDigests out;
    for (const auto& group : model.ParameterGroups()) {
        out[group.key] = GroupDigest(group);
    }
    return out;
}

/**
 * Checks restored @p model against the harness's digests: every non-expert
 * group equals its copy at @p restart, and every expert equals its copy at
 * the iteration @p expert_iteration names, which must lie within the PEC
 * staleness bound of the restart point.
 */
bool
CheckRestored(moc::MoeTransformerLm& model,
              const std::map<std::size_t, StateDigests>& history,
              std::size_t restart,
              const std::function<std::size_t(const moc::ParamGroup&)>&
                  expert_iteration) {
    bool ok = true;
    for (const auto& group : model.ParameterGroups()) {
        const bool expert = group.kind == moc::ModuleKind::kExpert;
        const std::size_t iter = expert ? expert_iteration(group) : restart;
        const auto snap = history.find(iter);
        const bool fresh_enough = iter <= restart && iter + kStalenessBound >= restart;
        if (!fresh_enough || snap == history.end() ||
            snap->second.at(group.key) != GroupDigest(group)) {
            std::fprintf(stderr,
                         "check: %s restored @%zu (restart %zu) differs from "
                         "the harness copy\n",
                         group.key.c_str(), iter, restart);
            ok = false;
        }
    }
    return ok;
}

/** Samples collected over every round of one run. */
struct Samples {
    std::vector<double> ckpt_ms;
    std::vector<double> written_mib;
    /** CheckpointReport::persist_bytes, beside the decorator's count. */
    std::vector<double> reported_persist_mib;
    std::vector<double> recover_ms;
    std::vector<double> restore_ms;
    std::vector<double> restore_read_mib;
    std::vector<double> step_ms;
    // Per-layer.
    std::vector<double> serialize_ms;
    std::vector<double> plan_ms;
    std::vector<double> recover_mem_mib;
    std::vector<double> recover_storage_mib;
    std::vector<double> first_tenth_ms;
    std::vector<double> last_tenth_ms;
    double shards_written = 0;
    std::size_t events = 0;
    std::vector<double> traced_ckpt_ms;
    std::vector<double> untraced_ckpt_ms;
    std::map<std::string, double> self_ms;
    std::size_t traced_events = 0;
    ManifestProbe manifest;
    std::vector<moc::Blob> shard_bytes;
};

/** Everything one round trains and checkpoints; addresses stay fixed. */
struct TrainerState {
    moc::LmConfig cfg;
    moc::ZipfMarkovCorpus corpus;
    moc::LmBatchStream stream;
    moc::MoeTransformerLm model;
    moc::Adam adam;
    std::vector<moc::Parameter*> params;
    moc::RankTopology topology;
    moc::FileStore file;
    CountingStore store;
    std::unique_ptr<moc::MocCheckpointSystem> system;

    TrainerState(std::uint64_t seed, const std::filesystem::path& dir)
        : cfg(ModelConfig(seed)),
          corpus(moc::CorpusConfig{.vocab_size = 256, .seed = seed}),
          stream(corpus, kBatch, kSeq, seed),
          model(cfg),
          adam(moc::AdamConfig{.lr = 3e-3}),
          params(model.AllParameters()),
          topology({.dp = kRanks, .ep = kRanks, .tp = 1, .pp = 1}, kGpusPerNode),
          file(dir),
          store(file) {
        moc::MocSystemConfig config;
        config.pec.k_snapshot = kKSnapshot;
        config.pec.k_persist = kKPersist;
        config.i_ckpt = kICkpt;
        config.persist_backend = &store;
        system = std::make_unique<moc::MocCheckpointSystem>(
            config, model, topology, cfg.ToModelSpec(),
            moc::ExtraState{0, 0, model.gating_rng().GetState()});
    }

    moc::ExtraState Extra(std::size_t iteration) {
        return {iteration, adam.step_count(), model.gating_rng().GetState()};
    }
};

void
RunRound(const Options& options, std::size_t round, bool traced, Samples& s,
         Result& result) {
    const ScratchDir dir(options.root / ("round" + std::to_string(round)));
    if (traced) {
        SetTracing(true);
    }
    TrainerState st(options.seed, dir.path() / "store");
    // The constructor wrote the initial full checkpoint.
    result.Op(st.system->manifest().LatestEligibleGeneration() == 0);
    st.store.TakePutLog();
    if (round == 0 && !options.trace) {
        result.Add("setup_s", MsSince(options.process_start) / 1e3, "s");
    }
    std::map<std::size_t, StateDigests> history;
    history[0] = DigestModel(st.model);

    std::size_t iteration = 0;
    std::size_t events = 0;
    std::size_t faults = 0;
    double pair_ms = 0.0;
    std::vector<double> round_ms;
    auto train_step = [&] {
        ++iteration;
        const auto start = Clock::now();
        st.model.TrainBackward(st.stream.Get(iteration - 1));
        st.system->RecordRouting(st.model.MoeLayers());
        st.adam.Step(st.params);
        s.step_ms.push_back(MsSince(start));
    };
    while (events < kEventsPerRound) {
        train_step();
        if (!st.system->ShouldCheckpoint(iteration)) {
            continue;
        }
        const std::uint64_t put_before = st.store.bytes_put();
        const auto start = Clock::now();
        const moc::CheckpointReport ckpt_report =
            st.system->Checkpoint(iteration, st.Extra(iteration));
        const double ms = MsSince(start);
        s.reported_persist_mib.push_back(
            static_cast<double>(ckpt_report.persist_bytes) / kMiB);
        ++events;
        result.Op(st.system->manifest().LatestEligibleGeneration() == iteration);
        s.ckpt_ms.push_back(ms);
        round_ms.push_back(ms);
        (traced ? s.traced_ckpt_ms : s.untraced_ckpt_ms).push_back(ms);
        s.written_mib.push_back(
            static_cast<double>(st.store.bytes_put() - put_before) / kMiB);
        for (const auto& [key, size] : st.store.TakePutLog()) {
            s.shards_written += key == "meta/manifest" ? 0.0 : 1.0;
        }
        ++s.events;
        s.traced_events += traced ? 1 : 0;
        history[iteration] = DigestModel(st.model);

        if (events % kFaultEvery != 0) {
            continue;
        }
        // One more iteration is lost to the failure, then recovery.
        train_step();
        const moc::NodeId node = faults++ % 2;
        const auto rstart = Clock::now();
        const moc::RecoveryReport report = st.system->RecoverFromFault({node});
        pair_ms += MsSince(rstart);
        if (faults % 2 == 0) {
            s.recover_ms.push_back(pair_ms / 2.0);
            pair_ms = 0.0;
        }
        const std::size_t restart = report.plan.restart_iteration;
        const auto& expert_iter = report.plan.expert_recovered_iteration;
        const bool ok =
            restart == iteration - 1 && report.degraded.empty() &&
            CheckRestored(st.model, history, restart,
                          [&](const moc::ParamGroup& g) {
                              return expert_iter[g.moe_index][g.expert];
                          });
        result.Op(ok, !ok);
        s.recover_mem_mib.push_back(
            static_cast<double>(report.plan.bytes_from_memory) / kMiB);
        s.recover_storage_mib.push_back(
            static_cast<double>(report.plan.bytes_from_storage) / kMiB);
        st.adam.set_step_count(report.extra.adam_step);
        st.model.gating_rng().SetState(report.extra.gating_rng);
        iteration = restart;
        while (!history.empty() && history.begin()->first + kStalenessBound +
                                           kICkpt < restart) {
            history.erase(history.begin());
        }
    }
    const std::size_t tenth = std::max<std::size_t>(1, round_ms.size() / 10);
    s.first_tenth_ms.insert(s.first_tenth_ms.end(), round_ms.begin(),
                            round_ms.begin() + static_cast<long>(tenth));
    s.last_tenth_ms.insert(s.last_tenth_ms.end(),
                           round_ms.end() - static_cast<long>(tenth),
                           round_ms.end());

    // Cold starts: fresh processes' models restored from the store alone.
    const moc::CheckpointManifest& manifest = st.system->manifest();
    for (std::size_t i = 0; i < kColdStartsPerRound; ++i) {
        moc::MoeTransformerLm fresh(ModelConfig(options.seed + 1 + i));
        const std::uint64_t got_before = st.store.bytes_got();
        const auto start = Clock::now();
        const moc::ColdStartReport report =
            moc::ColdStartFromStore(fresh, st.store, manifest);
        s.restore_ms.push_back(MsSince(start));
        s.restore_read_mib.push_back(
            static_cast<double>(st.store.bytes_got() - got_before) / kMiB);
        const std::size_t restart = report.extra.iteration;
        const bool ok =
            restart == iteration && report.missing.empty() &&
            report.degraded.empty() &&
            CheckRestored(fresh, history, restart,
                          [&](const moc::ParamGroup& g) {
                              const auto chain = manifest.PersistFallbackChain(
                                  g.key + "/w", restart);
                              return chain.empty() ? restart + 1
                                                   : chain.front().iteration;
                          });
        result.Op(ok, !ok);
    }

    if (traced) {
        for (const auto& [name, ms] :
             SpanSelfMs(moc::obs::Tracer::Instance().Collect())) {
            s.self_ms[name] += ms;
        }
        SetTracing(false);
    }
    if (options.trace) {
        s.manifest = ProbeManifest(manifest);
        // Serialization and the two-level planner, timed from the harness.
        auto groups = st.model.ParameterGroups();
        std::vector<moc::Blob> blobs;
        const auto ser_start = Clock::now();
        for (const auto& group : groups) {
            blobs.push_back(moc::SerializeParamList(group.params, true));
            blobs.push_back(moc::SerializeParamList(group.params, false));
        }
        s.serialize_ms.push_back(MsSince(ser_start));
        std::vector<std::string> nonexpert_keys;
        for (const auto& group : groups) {
            if (group.kind != moc::ModuleKind::kExpert) {
                nonexpert_keys.push_back(group.key + "/w");
                nonexpert_keys.push_back(group.key + "/o");
            }
        }
        const moc::TwoLevelRecoveryPlanner planner(true);
        const auto plan_start = Clock::now();
        const moc::RecoveryPlan plan = planner.Plan(
            manifest, nonexpert_keys, st.model.MoeLayers().size(), kExperts);
        s.plan_ms.push_back(MsSince(plan_start));
        result.Op(plan.restart_iteration == iteration);
        s.shard_bytes = std::move(blobs);
    }
    moc::obs::EventJournal::Instance().Clear();
}

void
AddLayerMetrics(const Options& options, const Samples& s, Result& out) {
    std::vector<const moc::Blob*> shards;
    for (const auto& blob : s.shard_bytes) {
        shards.push_back(&blob);
    }
    AddUtilProbes(shards, out);
    const ScratchDir probe_dir(options.root / "probe");
    const bool probes_ok =
        AddStorageProbes(shards, 64 << 10, probe_dir.path(), options.seed, out);
    out.Op(probes_ok, !probes_ok);
    AddManifestMetrics(s.manifest, s.first_tenth_ms, s.last_tenth_ms, out);
    out.Add("tensor.serialize_ms", Median(s.serialize_ms), "ms");
    // The trainer path has no cluster engine: no barrier, no dedup or delta.
    const double events = static_cast<double>(std::max<std::size_t>(1, s.events));
    out.Add("ckpt.serialize_ms", 0.0, "ms");
    out.Add("ckpt.snapshot_makespan_ms", 0.0, "ms");
    out.Add("ckpt.persist_drain_ms", 0.0, "ms");
    out.Add("ckpt.shards_written", s.shards_written / events, "count");
    out.Add("ckpt.shards_deduped", 0.0, "count");
    out.Add("ckpt.shards_delta", 0.0, "count");
    out.Add("ckpt.forced_full", 0.0, "count");
    out.Add("net.barrier_wait_ms", 0.0, "ms");
    out.Add("core.restore_plan_ms", Median(s.plan_ms), "ms");
    out.Add("core.restore_exec_ms", Median(s.restore_ms), "ms");
    out.Add("core.recover_mem_mib", Median(s.recover_mem_mib), "MiB");
    out.Add("core.recover_storage_mib", Median(s.recover_storage_mib), "MiB");
    const double step_ms = Median(s.step_ms);
    out.Add("nn.train_step_ms", step_ms, "ms");
    out.Add("nn.ckpt_overhead_frac",
            Median(s.ckpt_ms) / (static_cast<double>(kICkpt) * step_ms), "ratio");
    AddSpanMetrics(s.self_ms, s.traced_events, Median(s.traced_ckpt_ms),
                   Median(s.untraced_ckpt_ms), out);
}

}  // namespace

Result
RunTrainerPec(const Options& options) {
    Result result;
    Samples s;
    const auto start = Clock::now();
    const std::size_t round_step = options.trace ? 2 : 1;
    std::size_t round = 0;
    do {
        for (std::size_t i = 0; i < round_step; ++i, ++round) {
            RunRound(options, round, options.trace && i == 1, s, result);
        }
    } while (MsSince(start) < options.seconds * 1e3);

    std::fprintf(stderr,
                 "%zu rounds, %zu events; train step median %.2f ms, ckpt "
                 "median %.2f ms, recover %.2f ms, cold start %.2f ms; "
                 "%.2f MiB put per checkpoint, %.2f MiB reported\n",
                 round, s.events, Median(s.step_ms), Median(s.ckpt_ms),
                 Median(s.recover_ms), Median(s.restore_ms),
                 Median(s.written_mib), Median(s.reported_persist_mib));
    if (options.trace) {
        AddLayerMetrics(options, s, result);
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
