// Fixed-size, lock-free log-linear histogram for nanosecond samples.
//
// Recording is one relaxed atomic add into a preallocated bucket array: no
// lock, no allocation, so it can run inside channel subscribers on the
// cluster's own threads (the central receiving task, the mirror event
// loops) without perturbing them. Each bucket spans 1/64 of its power of
// two, so a bucket's width is at most 1/64 of its lower bound (< 1.6%);
// percentiles interpolate linearly inside the bucket by rank.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <memory>
#include <vector>

namespace e2ebench {

class Histogram {
 public:
  static constexpr int kSubBits = 6;  // 64 linear sub-buckets per octave
  static constexpr int kMaxShift = 40;
  static constexpr std::size_t kBuckets =
      (kMaxShift + 1) * (std::size_t{1} << kSubBits) +
      (std::size_t{1} << kSubBits);

  void record(std::int64_t value) {
    const std::uint64_t v = value < 0 ? 0 : static_cast<std::uint64_t>(value);
    counts_[index_of(v)].fetch_add(1, std::memory_order_relaxed);
  }

  /// Call only while no thread records (between runs).
  void reset() {
    for (auto& c : counts_) c.store(0, std::memory_order_relaxed);
  }

  std::uint64_t count() const {
    std::uint64_t n = 0;
    for (const auto& c : counts_) n += c.load(std::memory_order_relaxed);
    return n;
  }

  void merge_from(const Histogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto n = other.counts_[i].load(std::memory_order_relaxed);
      if (n != 0) counts_[i].fetch_add(n, std::memory_order_relaxed);
    }
  }

  /// Nearest-rank q-quantile (q in [0,1]), interpolated inside its bucket.
  /// 0 when empty.
  double percentile(double q) const {
    const std::uint64_t n = count();
    if (n == 0) return 0.0;
    std::uint64_t rank = static_cast<std::uint64_t>(q * static_cast<double>(n));
    if (rank >= n) rank = n - 1;
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < kBuckets; ++i) {
      const auto c = counts_[i].load(std::memory_order_relaxed);
      if (seen + c > rank) {
        const double within =
            (static_cast<double>(rank - seen) + 0.5) / static_cast<double>(c);
        return static_cast<double>(lower_bound(i)) +
               within * static_cast<double>(width(i));
      }
      seen += c;
    }
    return static_cast<double>(lower_bound(kBuckets - 1));
  }

  double max() const {
    for (std::size_t i = kBuckets; i-- > 0;) {
      if (counts_[i].load(std::memory_order_relaxed) != 0) {
        return static_cast<double>(lower_bound(i) + width(i));
      }
    }
    return 0.0;
  }

 private:
  static constexpr std::uint64_t kSub = std::uint64_t{1} << kSubBits;

  static std::size_t index_of(std::uint64_t v) {
    if (v < 2 * kSub) return static_cast<std::size_t>(v);
    int shift = std::bit_width(v) - 1 - kSubBits;  // >= 1
    if (shift > kMaxShift) return kBuckets - 1;
    return static_cast<std::size_t>(shift) * kSub +
           static_cast<std::size_t>(v >> shift);
  }
  static std::uint64_t lower_bound(std::size_t i) {
    if (i < 2 * kSub) return i;
    const std::size_t shift = i / kSub - 1;
    return static_cast<std::uint64_t>(i - shift * kSub) << shift;
  }
  static std::uint64_t width(std::size_t i) {
    if (i < 2 * kSub) return 1;
    return std::uint64_t{1} << (i / kSub - 1);
  }

  std::array<std::atomic<std::uint64_t>, kBuckets> counts_{};
};

/// One Histogram per 100 ms of a run, keyed by when each sample's event
/// started (samples past the last window land in it). A percentile is
/// reported as the median of the per-window percentiles, so a burst of
/// stolen CPU time on a shared host moves a few windows rather than the
/// whole run's figure.
class WindowedHistogram {
 public:
  static constexpr std::size_t kWindows = 128;
  static constexpr std::int64_t kWindowNs = 100'000'000;

  WindowedHistogram() : windows_(std::make_unique<Histogram[]>(kWindows)) {}

  /// Call only while no thread records.
  void reset(std::int64_t origin) {
    origin_.store(origin, std::memory_order_relaxed);
    for (std::size_t i = 0; i < kWindows; ++i) windows_[i].reset();
  }

  void record(std::int64_t start, std::int64_t value) {
    const std::int64_t w =
        (start - origin_.load(std::memory_order_relaxed)) / kWindowNs;
    windows_[static_cast<std::size_t>(
                 std::clamp<std::int64_t>(w, 0, kWindows - 1))]
        .record(value);
  }

  void merge_from(const WindowedHistogram& other) {
    for (std::size_t i = 0; i < kWindows; ++i) {
      windows_[i].merge_from(other.windows_[i]);
    }
  }

  void merge_into(Histogram& total) const {
    for (std::size_t i = 0; i < kWindows; ++i) total.merge_from(windows_[i]);
  }

  /// Median over the windows holding at least `min_count` samples of each
  /// window's q-quantile; `fallback` when no window qualifies.
  double windowed_percentile(double q, std::uint64_t min_count,
                             double fallback) const {
    std::vector<double> per_window;
    for (std::size_t i = 0; i < kWindows; ++i) {
      if (windows_[i].count() >= min_count) {
        per_window.push_back(windows_[i].percentile(q));
      }
    }
    if (per_window.empty()) return fallback;
    std::sort(per_window.begin(), per_window.end());
    const std::size_t n = per_window.size();
    return n % 2 == 1 ? per_window[n / 2]
                      : (per_window[n / 2 - 1] + per_window[n / 2]) / 2;
  }

 private:
  std::unique_ptr<Histogram[]> windows_;
  std::atomic<std::int64_t> origin_{0};
};

}  // namespace e2ebench
