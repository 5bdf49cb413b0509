#include "harness.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace ckptbench {

void
PrintResult(const Result& result) {
    std::string line = "{\"correct\": ";
    line += result.correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(result.attempted);
    line += ", \"failed\": " + std::to_string(result.failed);
    line += ", \"metrics\": {";
    for (std::size_t i = 0; i < result.metrics.size(); ++i) {
        const Metric& m = result.metrics[i];
        char value[64];
        const double v = std::isfinite(m.value) ? m.value : 0.0;
        std::snprintf(value, sizeof(value), "%.17g", v);
        line += (i == 0 ? "\"" : ", \"") + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
}

double
Median(std::vector<double> values) {
    if (values.empty()) {
        return 0.0;
    }
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

void
FillRandom(moc::Blob& blob, std::size_t begin, std::size_t end,
           std::uint64_t seed) {
    SplitMix64 rng(seed);
    std::size_t i = begin;
    for (; i + 8 <= end; i += 8) {
        const std::uint64_t word = rng.Next();
        std::memcpy(blob.data() + i, &word, 8);
    }
    for (; i < end; ++i) {
        blob[i] = static_cast<std::uint8_t>(rng.Next());
    }
}

Digest
DigestBytes(Digest seed, const void* data, std::size_t len) {
    // Two independent multiply-xorshift lanes over 8-byte words.
    const auto* p = static_cast<const std::uint8_t*>(data);
    std::uint64_t a = seed.a ^ 0x243F6A8885A308D3ULL ^ len;
    std::uint64_t b = seed.b ^ 0x13198A2E03707344ULL;
    auto mix = [](std::uint64_t h, std::uint64_t w, std::uint64_t k) {
        h ^= w * k;
        h = (h << 29) | (h >> 35);
        return h * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL;
    };
    std::size_t i = 0;
    for (; i + 8 <= len; i += 8) {
        std::uint64_t w = 0;
        std::memcpy(&w, p + i, 8);
        a = mix(a, w, 0xFF51AFD7ED558CCDULL);
        b = mix(b, w ^ i, 0xC4CEB9FE1A85EC53ULL);
    }
    for (; i < len; ++i) {
        a = mix(a, p[i], 0xFF51AFD7ED558CCDULL);
        b = mix(b, p[i] ^ i, 0xC4CEB9FE1A85EC53ULL);
    }
    return {a, b};
}

void
CountingStore::Put(const std::string& key, moc::Blob blob) {
    const std::size_t size = blob.size();
    base_.Put(key, std::move(blob));
    bytes_put_ += size;
    std::lock_guard<std::mutex> lock(log_mu_);
    put_log_.emplace_back(key, size);
}

std::optional<moc::Blob>
CountingStore::Get(const std::string& key) const {
    auto blob = base_.Get(key);
    if (blob.has_value()) {
        bytes_got_ += blob->size();
    }
    return blob;
}

std::vector<std::pair<std::string, std::size_t>>
CountingStore::TakePutLog() {
    std::lock_guard<std::mutex> lock(log_mu_);
    return std::exchange(put_log_, {});
}

std::map<std::string, double>
SpanSelfMs(const std::vector<moc::obs::TraceEvent>& events) {
    std::map<std::uint32_t, std::vector<const moc::obs::TraceEvent*>> by_tid;
    for (const auto& e : events) {
        by_tid[e.tid].push_back(&e);
    }
    std::map<std::string, double> self_ms;
    for (auto& [tid, list] : by_tid) {
        // Outer spans first at equal start, so a child never precedes its
        // parent on the stack.
        std::sort(list.begin(), list.end(), [](const auto* x, const auto* y) {
            return x->start_ns != y->start_ns ? x->start_ns < y->start_ns
                                              : x->duration_ns > y->duration_ns;
        });
        struct Open {
            const moc::obs::TraceEvent* event;
            std::uint64_t end;
            std::uint64_t child_ns;
        };
        std::vector<Open> stack;
        auto close = [&self_ms](const Open& open) {
            const std::uint64_t self =
                open.event->duration_ns - std::min(open.child_ns,
                                                   open.event->duration_ns);
            self_ms[open.event->name] += static_cast<double>(self) * 1e-6;
        };
        for (const auto* e : list) {
            const std::uint64_t end = e->start_ns + e->duration_ns;
            while (!stack.empty() && stack.back().end <= e->start_ns) {
                close(stack.back());
                stack.pop_back();
            }
            if (!stack.empty()) {
                stack.back().child_ns +=
                    std::min(end, stack.back().end) - e->start_ns;
            }
            stack.push_back({e, end, 0});
        }
        while (!stack.empty()) {
            close(stack.back());
            stack.pop_back();
        }
    }
    return self_ms;
}

void
SetTracing(bool on) {
    auto& tracer = moc::obs::Tracer::Instance();
    tracer.set_enabled(on);
    tracer.Clear();
}

ScratchDir::ScratchDir(std::filesystem::path path) : path_(std::move(path)) {
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
}

ScratchDir::~ScratchDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
}

}  // namespace ckptbench
