#include "measure.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace perfbench {

using costdb::DataChunk;
using costdb::PhysicalType;

size_t MinSamplesFor(double p) {
  // Nearest rank r = ceil(p * n); samples beyond it: n - r >= kMinTailSamples.
  size_t n = 1;
  while (n - static_cast<size_t>(std::ceil(p * static_cast<double>(n))) <
         kMinTailSamples) {
    ++n;
  }
  return n;
}

bool Percentile(std::vector<double> samples, double p, double* out) {
  const size_t n = samples.size();
  if (n == 0) return false;
  const size_t rank = std::max<size_t>(
      1, static_cast<size_t>(std::ceil(p * static_cast<double>(n))));
  if (n - rank < kMinTailSamples) return false;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  *out = samples[rank - 1];
  return true;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double GeoMeanQError(const std::vector<double>& estimated,
                     const std::vector<double>& actual) {
  double log_sum = 0.0;
  size_t n = 0;
  for (size_t i = 0; i < estimated.size() && i < actual.size(); ++i) {
    if (estimated[i] <= 0.0 || actual[i] <= 0.0) continue;
    log_sum += std::fabs(std::log(estimated[i] / actual[i]));
    ++n;
  }
  return n == 0 ? 0.0 : std::exp(log_sum / static_cast<double>(n));
}

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ull;
constexpr uint64_t kFnvPrime = 1099511628211ull;

void Mix(uint64_t* h, const void* data, size_t len) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < len; ++i) {
    *h ^= p[i];
    *h *= kFnvPrime;
  }
}

uint64_t RowHash(const DataChunk& chunk, size_t row) {
  uint64_t h = kFnvOffset;
  char buf[32];
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const auto& col = chunk.column(c);
    if (col.IsNull(row)) {
      Mix(&h, "\x00N", 2);
      continue;
    }
    switch (col.physical_type()) {
      case PhysicalType::kInt64: {
        const int64_t v = col.GetInt(row);
        Mix(&h, "I", 1);
        Mix(&h, &v, sizeof(v));
        break;
      }
      case PhysicalType::kDouble: {
        const int len = std::snprintf(buf, sizeof(buf), "D%.9g",
                                      col.GetDouble(row));
        Mix(&h, buf, static_cast<size_t>(len));
        break;
      }
      case PhysicalType::kString: {
        const std::string& s = col.GetString(row);
        const uint64_t len = s.size();
        Mix(&h, "S", 1);
        Mix(&h, &len, sizeof(len));
        Mix(&h, s.data(), s.size());
        break;
      }
    }
  }
  return h;
}

/// Sort key of a row for SameRows: exact for ints/strings, coarse for
/// doubles (they are compared at tolerance afterwards).
std::string RowKey(const DataChunk& chunk, size_t row) {
  std::string key;
  char buf[48];
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    const auto& col = chunk.column(c);
    if (col.IsNull(row)) {
      key += "N|";
      continue;
    }
    switch (col.physical_type()) {
      case PhysicalType::kInt64:
        std::snprintf(buf, sizeof(buf), "%lld|",
                      static_cast<long long>(col.GetInt(row)));
        key += buf;
        break;
      case PhysicalType::kDouble:
        std::snprintf(buf, sizeof(buf), "%.6g|", col.GetDouble(row));
        key += buf;
        break;
      case PhysicalType::kString:
        key += col.GetString(row) + "|";
        break;
    }
  }
  return key;
}

std::vector<size_t> SortedRows(const DataChunk& chunk) {
  std::vector<std::string> keys(chunk.num_rows());
  for (size_t r = 0; r < keys.size(); ++r) keys[r] = RowKey(chunk, r);
  std::vector<size_t> order(keys.size());
  for (size_t r = 0; r < order.size(); ++r) order[r] = r;
  std::sort(order.begin(), order.end(),
            [&](size_t a, size_t b) { return keys[a] < keys[b]; });
  return order;
}

}  // namespace

ResultDigest DigestOf(const DataChunk& chunk) {
  ResultDigest d;
  d.rows = chunk.num_rows();
  for (size_t r = 0; r < d.rows; ++r) d.hash += RowHash(chunk, r);
  return d;
}

bool SameRows(const DataChunk& a, const DataChunk& b) {
  if (a.num_columns() != b.num_columns() || a.num_rows() != b.num_rows()) {
    return false;
  }
  for (size_t c = 0; c < a.num_columns(); ++c) {
    if (a.column(c).physical_type() != b.column(c).physical_type()) {
      return false;
    }
  }
  const std::vector<size_t> ra = SortedRows(a);
  const std::vector<size_t> rb = SortedRows(b);
  for (size_t i = 0; i < ra.size(); ++i) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      const auto& ca = a.column(c);
      const auto& cb = b.column(c);
      const size_t x = ra[i];
      const size_t y = rb[i];
      if (ca.IsNull(x) != cb.IsNull(y)) return false;
      if (ca.IsNull(x)) continue;
      switch (ca.physical_type()) {
        case PhysicalType::kInt64:
          if (ca.GetInt(x) != cb.GetInt(y)) return false;
          break;
        case PhysicalType::kDouble: {
          const double u = ca.GetDouble(x);
          const double v = cb.GetDouble(y);
          const double scale = std::max({1.0, std::fabs(u), std::fabs(v)});
          if (std::fabs(u - v) > 1e-9 * scale) return false;
          break;
        }
        case PhysicalType::kString:
          if (ca.GetString(x) != cb.GetString(y)) return false;
          break;
      }
    }
  }
  return true;
}

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double NowSeconds() {
  static const auto origin = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       origin)
      .count();
}

SpeedReference::SpeedReference(size_t threads) {
  for (size_t i = 0; i < std::max<size_t>(1, threads); ++i) {
    lanes_.push_back(std::make_unique<Lane>());
  }
  for (size_t i = 1; i < lanes_.size(); ++i) {
    helpers_.emplace_back([this, i] { HelperLoop(i); });
  }
}

SpeedReference::~SpeedReference() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& t : helpers_) t.join();
}

void SpeedReference::Lane::Run() {
  uint64_t x = state;
  uint64_t acc = 0;
  const size_t n = random.size();
  for (int i = 0; i < 20000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    acc += random[(x >> 20) % n];
    random[(x >> 24) % n] += acc;
  }
  // Dependent loads over 2 MiB: cache-resident when the host is quiet.
  const size_t c = cached.size();
  size_t at = static_cast<size_t>(x % c);
  for (int i = 0; i < 15000; ++i) {
    at = (at * 2862933555777941757ull + cached[at] + 3037000493ull) % c;
    cached[at] += static_cast<uint64_t>(i);
  }
  acc += at;
  const size_t m = local.size();
  for (int pass = 0; pass < 20; ++pass) {
    for (size_t i = 0; i < m; ++i) {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      local[i] += x;
      local[(i * 7) % m] ^= local[i] >> 3;
    }
  }
  state = x + acc;  // keeps the work observable
}

void SpeedReference::HelperLoop(size_t lane) {
  uint64_t seen = 0;
  while (true) {
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || generation_ != seen; });
      if (stop_) return;
      seen = generation_;
    }
    lanes_[lane]->Run();
    {
      std::lock_guard<std::mutex> lock(mu_);
      --pending_;
    }
    cv_.notify_all();
  }
}

double SpeedReference::RunSlice() {
  const double start = NowSeconds();
  {
    std::lock_guard<std::mutex> lock(mu_);
    ++generation_;
    pending_ = helpers_.size();
  }
  cv_.notify_all();
  lanes_[0]->Run();
  {
    std::unique_lock<std::mutex> lock(mu_);
    cv_.wait(lock, [&] { return pending_ == 0; });
  }
  const double end = NowSeconds();
  ++slices_;
  seconds_ += end - start;
  times_.push_back(end - start);
  last_end_ = end;
  return end - start;
}

void SpeedReference::MaybeSample() {
  if (NowSeconds() - last_end_ >= kIntervalSeconds) RunSlice();
}

double SpeedReference::FactorSince(const Window& since) const {
  if (slices_ == since.slices) return 1.0;
  return Median(std::vector<double>(times_.begin() + since.slices,
                                    times_.end())) /
         kNominalSliceSeconds;
}

size_t SpeedReference::BufferBytes() const {
  size_t bytes = 0;
  for (const auto& lane : lanes_) {
    bytes += (lane->random.size() + lane->cached.size() + lane->local.size()) *
             sizeof(uint64_t);
  }
  return bytes;
}

int SpanRecorder::Begin(const std::string& name, uint64_t query_id) {
  Span span;
  span.name = name;
  span.parent = open_.empty() ? -1 : open_.back();
  span.query_id = query_id;
  span.start = NowSeconds();
  spans_.push_back(std::move(span));
  child_seconds_.push_back(0.0);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end = NowSeconds();
  // Spans close in LIFO order (ScopedSpan), so `id` is the innermost.
  if (!open_.empty() && open_.back() == id) open_.pop_back();
  if (span.parent >= 0) {
    child_seconds_[static_cast<size_t>(span.parent)] += span.seconds();
  }
}

double SpanRecorder::SelfSeconds(int id) const {
  const size_t i = static_cast<size_t>(id);
  return spans_[i].seconds() - child_seconds_[i];
}

std::vector<double> SpanRecorder::SelfSecondsOf(
    const std::string& name) const {
  std::vector<double> out;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].name == name) out.push_back(SelfSeconds(static_cast<int>(i)));
  }
  return out;
}

bool SpanRecorder::WriteJsonLines(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"query_id\": %llu}\n",
                 s.name.c_str(), s.start, s.end, s.parent,
                 static_cast<unsigned long long>(s.query_id));
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench
