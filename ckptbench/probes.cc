// Per-layer probes for the traced run: each times one layer's public
// functions from the harness, on the workload's own shard bytes.

#include "probes.h"

#include <algorithm>
#include <cstring>

#include "storage/delta_codec.h"
#include "storage/file_store.h"
#include "storage/memory_store.h"
#include "storage/resilient_store.h"
#include "util/crc32.h"
#include "util/hash.h"

namespace ckptbench {

namespace {

constexpr int kReps = 5;

/** Median wall time of @p reps calls of @p fn, in ms. */
template <typename Fn>
double
MedianMs(int reps, Fn&& fn) {
    std::vector<double> ms;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        fn();
        ms.push_back(MsSince(start));
    }
    return Median(ms);
}

double
TotalBytes(const std::vector<const moc::Blob*>& shards) {
    double total = 0.0;
    for (const auto* s : shards) {
        total += static_cast<double>(s->size());
    }
    return total;
}

/** The leading shards whose sizes add up to about @p budget bytes. */
std::vector<const moc::Blob*>
Take(const std::vector<const moc::Blob*>& shards, double budget) {
    std::vector<const moc::Blob*> out;
    double total = 0.0;
    for (const auto* s : shards) {
        if (total >= budget) {
            break;
        }
        out.push_back(s);
        total += static_cast<double>(s->size());
    }
    return out;
}

double
GBps(double bytes, double ms) {
    return ms > 0.0 ? bytes / (ms * 1e6) : 0.0;
}

}  // namespace

void
AddUtilProbes(const std::vector<const moc::Blob*>& all_shards, Result& out) {
    const auto shards = Take(all_shards, 32.0 * kMiB);
    const double bytes = TotalBytes(shards);
    std::uint64_t sink = 0;
    const double crc32c_ms = MedianMs(kReps, [&] {
        for (const auto* s : shards) {
            sink += moc::Crc32c(s->data(), s->size());
        }
    });
    const double crc32_ms = MedianMs(kReps, [&] {
        for (const auto* s : shards) {
            sink += moc::Crc32(s->data(), s->size());
        }
    });
    const double fnv_ms = MedianMs(kReps, [&] {
        for (const auto* s : shards) {
            sink += moc::Fnv1a64(s->data(), s->size());
        }
    });
    moc::Blob dst;
    const double memcpy_ms = MedianMs(kReps, [&] {
        for (const auto* s : shards) {
            dst.resize(s->size());
            std::memcpy(dst.data(), s->data(), s->size());
            sink += dst[s->size() / 2];
        }
    });
    out.Add("util.crc32c_gbps", GBps(bytes, crc32c_ms), "GB/s");
    out.Add("util.crc32_gbps", GBps(bytes, crc32_ms), "GB/s");
    out.Add("util.fnv1a64_gbps", GBps(bytes, fnv_ms), "GB/s");
    out.Add("util.memcpy_gbps", GBps(bytes, memcpy_ms), "GB/s");
    // Keeps the hash loops from being optimised away.
    if (sink == 0x5EED) {
        std::fprintf(stderr, "sink %llu\n",
                     static_cast<unsigned long long>(sink));
    }
}

bool
AddStorageProbes(const std::vector<const moc::Blob*>& all_shards,
                 std::size_t chunk_bytes, const std::filesystem::path& dir,
                 std::uint64_t seed, Result& out) {
    // Delta codec on the largest shard with one chunk changed.
    const moc::Blob& base = **std::max_element(
        all_shards.begin(), all_shards.end(),
        [](const auto* a, const auto* b) { return a->size() < b->size(); });
    moc::Blob current = base;
    const std::size_t chunks = (base.size() + chunk_bytes - 1) / chunk_bytes;
    const std::size_t chunk = SplitMix64(seed).Below(chunks);
    FillRandom(current, chunk * chunk_bytes,
               std::min(base.size(), (chunk + 1) * chunk_bytes), seed + 1);
    std::vector<moc::ChunkId> ids;
    const double hash_ms = MedianMs(kReps, [&] {
        ids = moc::HashChunks(current, chunk_bytes);
    });
    const auto base_ids = moc::HashChunks(base, chunk_bytes);
    std::vector<std::uint32_t> changed;
    for (std::size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] != base_ids[i]) {
            changed.push_back(static_cast<std::uint32_t>(i));
        }
    }
    moc::Blob record;
    const double encode_ms = MedianMs(kReps, [&] {
        record = moc::EncodeDelta(current, changed, chunk_bytes, 0);
    });
    moc::Blob applied;
    const double apply_ms = MedianMs(kReps, [&] {
        applied = moc::ApplyDelta(record, base);
    });
    out.Add("storage.hash_chunks_gbps",
            GBps(static_cast<double>(current.size()), hash_ms), "GB/s");
    out.Add("storage.encode_delta_ms", encode_ms, "ms");
    out.Add("storage.apply_delta_ms", apply_ms, "ms");

    // Stores: the same shards put into each, ms per MiB put.
    const auto shards = Take(all_shards, 16.0 * kMiB);
    const double mib = TotalBytes(shards) / kMiB;
    auto put_all = [&shards](moc::ObjectStore& store) {
        for (std::size_t i = 0; i < shards.size(); ++i) {
            store.Put("probe/" + std::to_string(i), *shards[i]);
        }
    };
    moc::MemoryStore memory;
    moc::FileStore file(dir / "file");
    moc::FileStore resilient_base(dir / "resilient");
    moc::ResilientStore resilient(resilient_base);
    const double mem_ms = MedianMs(3, [&] { put_all(memory); });
    const double file_put_ms = MedianMs(3, [&] { put_all(file); });
    bool read_back = true;
    const double file_get_ms = MedianMs(3, [&] {
        for (std::size_t i = 0; i < shards.size(); ++i) {
            const auto blob = file.Get("probe/" + std::to_string(i));
            read_back = read_back && blob.has_value() && *blob == *shards[i];
        }
    });
    const double resilient_ms = MedianMs(3, [&] { put_all(resilient); });
    out.Add("storage.filestore_put_ms_per_mib", file_put_ms / mib, "ms/MiB");
    out.Add("storage.filestore_get_ms_per_mib", file_get_ms / mib, "ms/MiB");
    out.Add("storage.memstore_put_ms_per_mib", mem_ms / mib, "ms/MiB");
    out.Add("storage.resilient_put_ms_per_mib", resilient_ms / mib, "ms/MiB");
    return applied == current && read_back;
}

ManifestProbe
ProbeManifest(const moc::CheckpointManifest& manifest) {
    std::size_t json_bytes = 0;
    const double to_json_ms =
        MedianMs(kReps, [&] { json_bytes = manifest.ToJson().size(); });
    return {static_cast<double>(json_bytes), to_json_ms};
}

void
AddManifestMetrics(const ManifestProbe& probe,
                   const std::vector<double>& first_tenth_ms,
                   const std::vector<double>& last_tenth_ms, Result& out) {
    out.Add("storage.manifest_json_bytes", probe.json_bytes, "B");
    out.Add("storage.manifest_to_json_ms", probe.to_json_ms, "ms");
    out.Add("storage.event_ms_first_tenth", Median(first_tenth_ms), "ms");
    out.Add("storage.event_ms_last_tenth", Median(last_tenth_ms), "ms");
}

void
AddSpanMetrics(const std::map<std::string, double>& self_ms,
               std::size_t events, double traced_ckpt_ms,
               double untraced_ckpt_ms, Result& out) {
    static const char* const kSpans[] = {
        "ckpt.checkpoint",    "ckpt.recover",          "cluster.serialize",
        "cluster.persist_shard", "cluster.verify_shard", "cluster.seal",
        "filestore.put",      "filestore.get",         "net.barrier.wait"};
    for (const char* name : kSpans) {
        const auto it = self_ms.find(name);
        const double total = it == self_ms.end() ? 0.0 : it->second;
        out.Add(std::string("obs.self_ms.") + name,
                events == 0 ? 0.0 : total / static_cast<double>(events),
                "ms/event");
    }
    out.Add("obs.tracing_overhead_frac",
            untraced_ckpt_ms > 0.0 ? traced_ckpt_ms / untraced_ckpt_ms - 1.0
                                   : 0.0,
            "ratio");
}

}  // namespace ckptbench
