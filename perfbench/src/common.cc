// Statistics, correctness accounting and the span recorder.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <map>

#include "ledger.h"

namespace perfbench {

double Samples::Quantile(double q) const {
  if (values_.empty()) return 0;
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  const double pos = q * static_cast<double>(sorted.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, sorted.size() - 1);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - static_cast<double>(lo));
}

Samples::Tail Samples::HighestTail() const {
  Tail tail;
  tail.count = values_.size();
  if (values_.size() <= kTailBeyond) {
    tail.value = Median();
    return tail;
  }
  std::vector<double> sorted = values_;
  std::sort(sorted.begin(), sorted.end());
  // Rank n - kTailBeyond (1-based) leaves exactly kTailBeyond beyond it.
  const size_t rank = sorted.size() - kTailBeyond;
  tail.value = sorted[rank - 1];
  tail.percentile =
      100.0 * static_cast<double>(rank) / static_cast<double>(sorted.size());
  return tail;
}

bool Checker::Record(bool ok, const std::string& what) {
  attempted_.fetch_add(1);
  if (!ok) {
    failed_.fetch_add(1);
    // Log the first few failures; the count carries the rest.
    if (logged_.fetch_add(1) < 8) {
      std::fprintf(stderr, "ledger: FAILED %s\n", what.c_str());
    }
  }
  return ok;
}

bool SameTable(const Table& a, const Table& b) {
  return a.Equals(b) && a.rejected == b.rejected;
}

// ------------------------------------------------------------------ spans

namespace {

thread_local int64_t tls_open_span = 0;

int ThreadIndex() {
  static std::atomic<int> next{0};
  thread_local const int index = next.fetch_add(1);
  return index;
}

const std::chrono::steady_clock::time_point kEpoch =
    std::chrono::steady_clock::now();

}  // namespace

SpanRecorder& SpanRecorder::Get() {
  static SpanRecorder recorder;
  return recorder;
}

double SpanRecorder::NowUs() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - kEpoch)
      .count();
}

int64_t SpanRecorder::Begin() { return next_id_.fetch_add(1); }

void SpanRecorder::Record(SpanRecord record) {
  std::lock_guard<std::mutex> lock(mu_);
  if (spans_.size() >= kMaxSpans) {
    dropped_.fetch_add(1);
    return;
  }
  spans_.push_back(std::move(record));
}

size_t SpanRecorder::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::vector<SpanRecorder::SelfTime> SpanRecorder::SelfTimes() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Children of one span never overlap each other (a thread runs one call
  // at a time), so the covered part is the sum of child durations.
  std::map<int64_t, double> child_us;
  for (const SpanRecord& s : spans_) {
    if (s.parent != 0) child_us[s.parent] += s.end_us - s.start_us;
  }
  std::map<std::string, SelfTime> by_name;
  for (const SpanRecord& s : spans_) {
    SelfTime& t = by_name[s.name];
    t.name = s.name;
    const double total = (s.end_us - s.start_us) / 1e3;
    const auto it = child_us.find(s.id);
    const double covered = it == child_us.end() ? 0 : it->second / 1e3;
    ++t.count;
    t.total_ms += total;
    t.self_ms += total - covered;
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::string& other_json) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"traceEvents\": [\n");
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (size_t i = 0; i < spans_.size(); ++i) {
      const SpanRecord& s = spans_[i];
      std::fprintf(f,
                   "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
                   "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %lld, "
                   "\"parent\": %lld, \"request\": %lld}}%s\n",
                   s.name.c_str(), s.thread, s.start_us,
                   s.end_us - s.start_us, static_cast<long long>(s.id),
                   static_cast<long long>(s.parent),
                   static_cast<long long>(s.request),
                   i + 1 < spans_.size() ? "," : "");
    }
  }
  std::fprintf(f, "], \"otherData\": %s}\n", other_json.c_str());
  return std::fclose(f) == 0;
}

Span::Span(const char* name, int64_t request)
    : name_(name), request_(request) {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (recorder.enabled()) {
    id_ = recorder.Begin();
    parent_ = tls_open_span;
    tls_open_span = id_;
  }
  start_us_ = recorder.NowUs();
}

Span::~Span() {
  SpanRecorder& recorder = SpanRecorder::Get();
  if (id_ == 0) return;
  tls_open_span = parent_;
  SpanRecorder::SpanRecord record;
  record.name = name_;
  record.id = id_;
  record.parent = parent_;
  record.request = request_;
  record.thread = ThreadIndex();
  record.start_us = start_us_;
  record.end_us = recorder.NowUs();
  recorder.Record(std::move(record));
}

double Span::ElapsedMs() const {
  return (SpanRecorder::Get().NowUs() - start_us_) / 1e3;
}

}  // namespace perfbench
