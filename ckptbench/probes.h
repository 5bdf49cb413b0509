#ifndef CKPTBENCH_PROBES_H_
#define CKPTBENCH_PROBES_H_

#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "harness.h"
#include "storage/manifest.h"

namespace ckptbench {

/** util.*: CRC-32C, CRC-32, FNV-1a 64 and memcpy throughput. */
void AddUtilProbes(const std::vector<const moc::Blob*>& shards, Result& out);

/**
 * storage.*: the delta codec on the largest shard with one chunk changed,
 * and MemoryStore / FileStore / ResilientStore puts and FileStore gets of
 * the shards under @p dir. Returns false when a probe read back wrong bytes.
 */
bool AddStorageProbes(const std::vector<const moc::Blob*>& shards,
                      std::size_t chunk_bytes, const std::filesystem::path& dir,
                      std::uint64_t seed, Result& out);

/** Manifest JSON size and ToJson time at one point of a run. */
struct ManifestProbe {
    double json_bytes = 0.0;
    double to_json_ms = 0.0;
};
ManifestProbe ProbeManifest(const moc::CheckpointManifest& manifest);

/**
 * storage.manifest_* from @p probe (taken at the end of the last round),
 * plus the event-time medians of the first and last tenth of each round.
 */
void AddManifestMetrics(const ManifestProbe& probe,
                        const std::vector<double>& first_tenth_ms,
                        const std::vector<double>& last_tenth_ms, Result& out);

/** obs.*: self time per checkpoint event of the program's spans. */
void AddSpanMetrics(const std::map<std::string, double>& self_ms,
                    std::size_t events, double traced_ckpt_ms,
                    double untraced_ckpt_ms, Result& out);

}  // namespace ckptbench

#endif  // CKPTBENCH_PROBES_H_
