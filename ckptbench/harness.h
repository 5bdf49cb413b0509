#ifndef CKPTBENCH_HARNESS_H_
#define CKPTBENCH_HARNESS_H_

// Shared pieces of the checkpoint/restore benchmark: command-line options,
// the byte-counting store decorator that sits at the persist boundary, the
// seeded input generator, span self-time, and the one-line JSON result.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "storage/object_store.h"

namespace ckptbench {

using Clock = std::chrono::steady_clock;

inline double
MsSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

inline constexpr double kMiB = 1024.0 * 1024.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Per-run store root; removed on every exit path. */
    std::filesystem::path root;
    /** main() entry: setup_s is measured from here. */
    Clock::time_point process_start;
};

struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** What one run prints as its last line. */
struct Result {
    bool correct = true;
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<Metric> metrics;

    void Add(const std::string& name, double value, const std::string& unit) {
        metrics.push_back({name, value, unit});
    }
    /** Records one operation; a failed check also clears `correct`. */
    void Op(bool ok, bool check_failed = false) {
        ++attempted;
        if (!ok) {
            ++failed;
        }
        if (check_failed) {
            correct = false;
        }
    }
};

/** Prints @p result as one JSON object on its own line. */
void PrintResult(const Result& result);

/** Median of @p values (0 when empty). */
double Median(std::vector<double> values);

/** Deterministic 64-bit generator for every input the benchmark makes. */
class SplitMix64 {
  public:
    explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
    std::uint64_t Next() {
        std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
        z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
        z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
        return z ^ (z >> 31);
    }
    std::size_t Below(std::size_t n) { return static_cast<std::size_t>(Next() % n); }

  private:
    std::uint64_t state_;
};

/** Overwrites [begin, end) of @p blob with seeded pseudo-random bytes. */
void FillRandom(moc::Blob& blob, std::size_t begin, std::size_t end,
                std::uint64_t seed);

/** Order-sensitive 128-bit digest, independent of the program's hashes. */
struct Digest {
    std::uint64_t a = 0;
    std::uint64_t b = 0;
    bool operator==(const Digest& o) const { return a == o.a && b == o.b; }
    bool operator!=(const Digest& o) const { return !(*this == o); }
};
Digest DigestBytes(Digest seed, const void* data, std::size_t len);

/**
 * ObjectStore decorator at the persist boundary: forwards every call to the
 * real store and counts the bytes put and got, so byte metrics come from
 * the storage boundary rather than the program's own counters. Thread-safe
 * (cluster persist workers call it concurrently).
 */
class CountingStore final : public moc::ObjectStore {
  public:
    explicit CountingStore(moc::ObjectStore& base) : base_(base) {}

    void Put(const std::string& key, moc::Blob blob) override;
    std::optional<moc::Blob> Get(const std::string& key) const override;
    bool Contains(const std::string& key) const override {
        return base_.Contains(key);
    }
    void Erase(const std::string& key) override { base_.Erase(key); }
    std::vector<std::string> Keys() const override { return base_.Keys(); }
    moc::Bytes TotalBytes() const override { return base_.TotalBytes(); }
    std::size_t Count() const override { return base_.Count(); }

    std::uint64_t bytes_put() const { return bytes_put_.load(); }
    std::uint64_t bytes_got() const { return bytes_got_.load(); }

    /** (key, size) of every Put since the last call, in completion order. */
    std::vector<std::pair<std::string, std::size_t>> TakePutLog();

  private:
    moc::ObjectStore& base_;
    std::atomic<std::uint64_t> bytes_put_{0};
    mutable std::atomic<std::uint64_t> bytes_got_{0};
    std::mutex log_mu_;
    std::vector<std::pair<std::string, std::size_t>> put_log_;
};

/**
 * Self time per span name, in ms: each span's duration minus the part of
 * it covered by spans nested inside it on the same thread.
 */
std::map<std::string, double> SpanSelfMs(
    const std::vector<moc::obs::TraceEvent>& events);

/** Turns the obs tracer on or off and empties its rings. */
void SetTracing(bool on);

/** Creates a directory on construction and removes it on destruction. */
class ScratchDir {
  public:
    explicit ScratchDir(std::filesystem::path path);
    ~ScratchDir();
    ScratchDir(const ScratchDir&) = delete;
    ScratchDir& operator=(const ScratchDir&) = delete;
    const std::filesystem::path& path() const { return path_; }

  private:
    std::filesystem::path path_;
};

Result RunTrainerPec(const Options& options);
Result RunCluster(const Options& options, bool delta_file);

}  // namespace ckptbench

#endif  // CKPTBENCH_HARNESS_H_
