#pragma once

/// Measurement helpers of the benchmark: percentiles that refuse to report
/// a tail they cannot support, order-insensitive result digests, and the
/// in-memory span recorder of the traced run.

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "storage/data_chunk.h"

namespace perfbench {

/// Samples a reported percentile must keep strictly above it.
constexpr size_t kMinTailSamples = 10;

/// Nearest-rank percentile (`p` in (0, 1]) of `samples`. Returns false when
/// fewer than kMinTailSamples samples lie beyond the rank, i.e. when the
/// sample cannot support that percentile.
bool Percentile(std::vector<double> samples, double p, double* out);

/// Smallest sample count for which Percentile(p) is reportable.
size_t MinSamplesFor(double p);

double Median(std::vector<double> samples);

/// Geometric mean of max(est/act, act/est) over paired positive samples.
double GeoMeanQError(const std::vector<double>& estimated,
                     const std::vector<double>& actual);

/// Order-insensitive digest of a result: row count plus the wrapping sum
/// of one 64-bit hash per row. Doubles enter the row hash rounded to 9
/// significant digits, so re-associated floating-point sums (sharded vs
/// local aggregation) usually agree; SameRows is the exact fallback.
struct ResultDigest {
  size_t rows = 0;
  uint64_t hash = 0;
  bool operator==(const ResultDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const ResultDigest& o) const { return !(*this == o); }
};

ResultDigest DigestOf(const costdb::DataChunk& chunk);

/// Multiset equality of two results' rows with doubles compared at a
/// relative tolerance of 1e-9 (integers and strings exactly).
bool SameRows(const costdb::DataChunk& a, const costdb::DataChunk& b);

/// Peak resident set of this process so far, in MiB.
double PeakRssMb();

/// Seconds on a monotonic clock since an arbitrary process-wide origin.
double NowSeconds();

/// Host-speed reference. This host's speed drifts by 15-25% over tens of
/// seconds (shared physical cores), for every program alike. A fixed slice
/// of reference work -- random read-modify-writes over 32 MiB, dependent
/// loads over 2 MiB and an L2-resident integer loop, on as many threads as
/// the workload queries with -- is timed between operations. Its median
/// time over that on the reference host is the run's slowdown factor; the
/// benchmark divides end-to-end times by it (reference-host time) and
/// prints the raw values beside them.
class SpeedReference {
 public:
  /// Median slice time on the reference host: a 4-vCPU Intel Xeon VM at
  /// 2.0 GHz, GCC 12 -O3.
  static constexpr double kNominalSliceSeconds = 3.0e-3;
  /// Wall time between slices (about 2% of a run goes to slices). Each
  /// slice leaves the caches cold for the next operation, so slices are
  /// spaced to follow few operations (see perfbench/README.md).
  static constexpr double kIntervalSeconds = 0.2;

  /// `threads` lanes run the slice together; a slice ends when all have.
  explicit SpeedReference(size_t threads = 1);
  ~SpeedReference();
  SpeedReference(const SpeedReference&) = delete;
  SpeedReference& operator=(const SpeedReference&) = delete;

  /// Run one slice; returns its seconds (also accumulated).
  double RunSlice();
  /// Run a slice if kIntervalSeconds passed since the last one ended.
  void MaybeSample();

  /// Slices run so far and their total seconds.
  struct Window {
    size_t slices = 0;
    double seconds = 0.0;
  };
  Window Mark() const { return Window{slices_, seconds_}; }
  /// Seconds spent in slices since `since`.
  double SecondsSince(const Window& since) const {
    return seconds_ - since.seconds;
  }
  /// Median slice time since `since` over kNominalSliceSeconds (1 when
  /// no slice ran). The median ignores the slices a preemption hit.
  double FactorSince(const Window& since) const;

  /// Bytes of the lanes' buffers, resident from construction on; not the
  /// program's memory.
  size_t BufferBytes() const;

 private:
  /// One thread's share of a slice, with its own buffers.
  struct Lane {
    std::vector<uint64_t> random = std::vector<uint64_t>(size_t{4} << 20, 1);
    std::vector<uint64_t> cached = std::vector<uint64_t>(size_t{256} << 10, 1);
    std::vector<uint64_t> local = std::vector<uint64_t>(size_t{8} << 10, 1);
    uint64_t state = 0x2545f4914f6cdd1dull;
    void Run();
  };
  void HelperLoop(size_t lane);

  std::vector<std::unique_ptr<Lane>> lanes_;
  std::vector<double> times_;  // every slice's seconds, in order
  size_t slices_ = 0;
  double seconds_ = 0.0;
  double last_end_ = 0.0;

  std::mutex mu_;
  std::condition_variable cv_;
  uint64_t generation_ = 0;  // guarded by mu_: bumped to start a slice
  size_t pending_ = 0;       // guarded by mu_: helper lanes still running
  bool stop_ = false;        // guarded by mu_
  std::vector<std::thread> helpers_;  // after the state they use
};

/// One timed interval of the traced run.
struct Span {
  std::string name;
  double start = 0.0;  // NowSeconds()
  double end = 0.0;
  int parent = -1;     // index into the recorder's spans, -1 for roots
  uint64_t query_id = 0;

  double seconds() const { return end - start; }
};

/// Spans stay in memory while the run is timed and are written out at the
/// end. Begin/End nest: a span begun while another is open is its child.
class SpanRecorder {
 public:
  int Begin(const std::string& name, uint64_t query_id);
  void End(int id);

  const std::vector<Span>& spans() const { return spans_; }

  /// Duration of span `id` minus the time its direct children cover.
  double SelfSeconds(int id) const;

  /// Self times of every span called `name`, in recording order.
  std::vector<double> SelfSecondsOf(const std::string& name) const;

  /// One JSON object per line: name, start, end, parent, query id.
  bool WriteJsonLines(const std::string& path) const;

 private:
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::vector<double> child_seconds_;
};

/// RAII span on an optional recorder (no-op when `recorder` is null).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name, uint64_t query_id)
      : recorder_(recorder),
        id_(recorder ? recorder->Begin(name, query_id) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
