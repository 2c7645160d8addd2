// The parparaw ledger benchmark: one command that drives the library's
// public entry points over a seeded workload, checks every output against
// an oracle, and reports end-to-end metrics (untraced run) or per-layer
// metrics (traced run). See perfbench/README.md for the metric catalogue.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "columnar/table.h"
#include "core/options.h"
#include "parallel/thread_pool.h"
#include "plan/planner.h"
#include "query/predicate.h"
#include "serve/server.h"
#include "workload/request_stream.h"

namespace perfbench {

using parparaw::ParseOptions;
using parparaw::Table;
using parparaw::ThreadPool;

// ---------------------------------------------------------------- stats

/// Timing samples of one measured quantity (milliseconds unless stated).
class Samples {
 public:
  void Add(double value) { values_.push_back(value); }
  void Append(const Samples& other) {
    values_.insert(values_.end(), other.values_.begin(), other.values_.end());
  }
  size_t size() const { return values_.size(); }
  bool empty() const { return values_.empty(); }
  double Median() const { return Quantile(0.5); }
  /// Linear-interpolated quantile q in [0, 1]; 0 when empty.
  double Quantile(double q) const;

  /// The highest percentile with at least kTailBeyond samples beyond it
  /// (the sample at rank n - kTailBeyond). Falls back to the median when
  /// there are too few samples to have any such percentile.
  struct Tail {
    double value = 0;
    double percentile = 50;
    size_t count = 0;
  };
  static constexpr size_t kTailBeyond = 10;
  Tail HighestTail() const;

 private:
  std::vector<double> values_;
};

// ------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Ordered metric list; the final JSON line and the human table print it.
class MetricList {
 public:
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics_.push_back({name, value, unit});
  }
  const std::vector<Metric>& all() const { return metrics_; }

 private:
  std::vector<Metric> metrics_;
};

// ---------------------------------------------------------- correctness

/// Counts operations attempted and failed (an error or an output that
/// differs from its reference). Thread-safe.
class Checker {
 public:
  /// Records one operation; returns `ok`. `what` is logged on failure.
  bool Record(bool ok, const std::string& what);
  /// Adds the counts of operations checked elsewhere (another process).
  void Add(int64_t attempted, int64_t failed) {
    attempted_.fetch_add(attempted);
    failed_.fetch_add(failed);
  }
  int64_t attempted() const { return attempted_.load(); }
  int64_t failed() const { return failed_.load(); }

 private:
  std::atomic<int64_t> attempted_{0};
  std::atomic<int64_t> failed_{0};
  std::atomic<int> logged_{0};
};

/// Table equality including the per-record reject flags.
bool SameTable(const Table& a, const Table& b);

// -------------------------------------------------------------- tracing

/// In-memory span recorder for the traced run. Spans are recorded around
/// calls into the library's public functions (never inside the library)
/// and written as Chrome trace JSON at exit. Bounded: once kMaxSpans are
/// held, further spans are counted as dropped instead of stored.
class SpanRecorder {
 public:
  static constexpr size_t kMaxSpans = 1 << 20;

  struct SpanRecord {
    std::string name;
    int64_t id = 0;
    int64_t parent = 0;   // 0 = root
    int64_t request = -1;  // serve request sequence, -1 = none
    int thread = 0;
    double start_us = 0;
    double end_us = 0;
  };

  /// Process-wide recorder; disabled (every Span a no-op) until Enable().
  static SpanRecorder& Get();
  void Enable() { enabled_ = true; }
  bool enabled() const { return enabled_; }

  int64_t Begin();  // allocates a span id
  void Record(SpanRecord record);
  double NowUs() const;

  /// Per-name self time: duration minus the part covered by child spans,
  /// summed over spans of that name.
  struct SelfTime {
    std::string name;
    int64_t count = 0;
    double total_ms = 0;
    double self_ms = 0;
  };
  std::vector<SelfTime> SelfTimes() const;

  /// Writes {"traceEvents": [...], "otherData": {...}}; `other_json` is a
  /// JSON object body placed under otherData.
  bool WriteChromeTrace(const std::string& path,
                        const std::string& other_json) const;
  size_t size() const;
  int64_t dropped() const { return dropped_.load(); }

 private:
  bool enabled_ = false;
  std::atomic<int64_t> next_id_{1};
  std::atomic<int64_t> dropped_{0};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
};

/// RAII span: start at construction, end at destruction; the enclosing
/// open span on this thread becomes its parent. `request` tags every span
/// of one serve request. Returns the elapsed milliseconds on demand, so
/// the same object times the call whether or not tracing is enabled.
class Span {
 public:
  explicit Span(const char* name, int64_t request = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  double ElapsedMs() const;

 private:
  const char* name_;
  int64_t request_;
  int64_t id_ = 0;
  int64_t parent_ = 0;
  double start_us_ = 0;
};

// ------------------------------------------------------------ workloads

/// One input of the parse/ingest phases, with its oracle output.
struct ParseInput {
  std::string label;
  std::string bytes;
  /// Options every entry point parses with (pool left unset).
  ParseOptions options;
  /// When >= 0, `options` are the ones parparawd resolves for that
  /// dataset, filled in by ResolveDatasets.
  int dataset = -1;
  /// SequentialParser output for `bytes` under `options`.
  Table oracle;
  /// The planner's decision for this input (recorded in the stamp).
  parparaw::plan::ParsePlan plan;
};

/// One dataset the serve phase uploads, with the in-process references a
/// reply must match.
struct Dataset {
  std::string label;
  std::string bytes;
  /// The options parparawd resolves for these bytes (header sniffed,
  /// types inferred), exactly as parparaw::BulkLoader resolves them.
  ParseOptions options;
  Table parse_ref;
  Table query_ref;
  int64_t query_scanned = 0;
  int64_t query_selected = 0;
  parparaw::plan::ParsePlan plan;
};

struct Workload {
  std::string name;
  /// Parsed by Parser::Parse / PipelineExecutor::IngestBuffer.
  std::vector<ParseInput> inputs;
  /// Uploaded to parparawd by the serve phase.
  std::vector<Dataset> datasets;
  /// Share of --seconds each phase gets: the interleaved parse/ingest
  /// rounds, then the closed and the open serve loops.
  double ingest_share = 0, closed_share = 0, open_share = 0;
};

/// End-to-end figures report the better quarter of their samples: the
/// 25th percentile of times and the 75th of rates. Load from outside the
/// process (other tenants taking CPU on a shared host) only ever adds
/// time, so the better quarter keeps the figure of the code under test
/// while a spell of such load lasts less than three quarters of a run.
inline constexpr double kFastQuantile = 0.25;

/// Open-loop arrival rate of the serve phase, in requests per second. A
/// constant, so the parent commit and a change are offered the same load.
/// It stays below the knee of every workload's closed-loop saturation even
/// while other tenants take half the host's CPU (taxi-like requests then
/// saturate near 60 req/s); at 70 req/s such spells overloaded the open
/// loop and its median latency grew tenfold.
inline constexpr double kOpenLoopRate = 40;
/// Executor partition size of every IngestBuffer call: the size
/// parparawd ingests with.
inline size_t ExecPartitionBytes() {
  return parparaw::serve::ServeOptions{}.partition_size;
}

/// Generates the named workload's bytes from `seed`, with the options of
/// every input that has a fixed schema. Calls nothing in the library but
/// the data generators. Returns false for an unknown name.
bool GenerateWorkload(const std::string& name, uint64_t seed,
                      Workload* workload);

/// Resolves every dataset's options as parparawd does (dialect and header
/// sniffed, types inferred, no statistics) and gives them to the inputs
/// drawn from a dataset. Part of set-up: it is the daemon's own first step.
bool ResolveDatasets(Workload* workload, ThreadPool* pool);

/// Computes the SequentialParser oracle of every input and the in-process
/// references of every dataset, and records the planner's decisions.
/// `seq_ms` receives the oracle's wall time for one pass over the inputs.
bool BuildReferences(Workload* workload, double* seq_ms);

/// The pushdown predicate of every query request.
parparaw::Predicate QueryPredicate();

/// Wall time of one SequentialParser pass over the inputs, in ms.
double TimeSequential(const Workload& workload);

// --------------------------------------------------------------- phases

/// The pools and the loopback daemon one run measures; built by setup.
struct Rig {
  std::unique_ptr<ThreadPool> pool;   // nproc workers, shared by all
  std::unique_ptr<ThreadPool> pool1;  // 1 worker
  std::unique_ptr<parparaw::serve::Server> server;
  uint16_t port = 0;
};

/// Results of the parse/ingest phases.
struct IngestFigures {
  int64_t bytes_per_pass = 0;
  Samples parse_ms;     // Parser::Parse pass at nproc workers (untraced)
  Samples parse_1w_ms;  // same at 1 worker (untraced)
  Samples ingest_ms;    // IngestBuffer pass at nproc workers (untraced)
  // From the IngestStats of each ingest pass.
  Samples exec_read_ms, exec_scan_ms, exec_sort_ms, exec_convert_ms;
  Samples exec_overlap_x, exec_max_inflight, exec_partitions;

  // Traced run only: the same parse cut into its public calls.
  Samples traced_ms;
  Samples plan_ms, scan_stage_ms, partition_ms, convert_ms, residual_ms;
  Samples context_ms, scan_ms, tag_ms;  // ParseOutput::timings
  Samples steals, waits;                // sched.* deltas per pass
  parparaw::WorkCounters work;          // of one traced pass
};

/// Runs rounds of one parse pass at nproc workers, one at 1 worker and
/// one ingest pass for about `seconds` (at least one round). With
/// `traced`, each round adds a parse pass at nproc workers cut into its
/// public calls under spans.
void RunIngestRounds(const Workload& workload, Rig* rig, double seconds,
                     bool traced, Checker* checker,
                     IngestFigures* out);

/// One completed parparawd round trip.
struct RoundTrip {
  parparaw::RequestKind kind = parparaw::RequestKind::kPing;
  size_t dataset = 0;
  double rtt_ms = 0;  // actual send to reply
};

/// Results of the serve phases.
struct ServeFigures {
  int64_t closed_requests = 0;
  double closed_seconds = 0;
  Samples closed_window_rps;  // completed requests/s per closed-loop window
  Samples open_latency_ms;    // from each request's scheduled send time
  Samples open_window_p50_ms;  // median latency per open-loop window
  Samples lateness_ms;         // actual send minus scheduled send
  std::vector<RoundTrip> open_trips;
  int64_t requests = 0, attempts = 0, busy_sheds = 0;
  double backoff_ms = 0;
  parparaw::serve::ServerStats server;

  // Traced run only.
  Samples rtt_parse_ms, rtt_stream_ms, rtt_query_ms;
  Samples inproc_ms, serialize_ms, deserialize_ms, unattributed_ms;
};

/// A closed loop with nproc clients for `closed_s`, then an open Poisson
/// loop at kOpenLoopRate for `open_s`; `cycle` varies the
/// request streams between calls.
void RunServeLoops(const Workload& workload, Rig* rig, int nproc,
                   uint64_t seed, int cycle, double closed_s, double open_s,
                   Checker* checker, ServeFigures* out);

/// Traced run only: times the in-process parse, serialize and
/// deserialize of each dataset under spans and splits every open-loop
/// parse round trip into those parts and the unattributed rest.
void AttributeServe(const Workload& workload, Rig* rig, Checker* checker,
                    ServeFigures* out);

/// Issues one parparawd parse round trip per dataset; set-up's cold call
/// of the daemon. Returns each reply's table, or nothing for a failed or
/// shed request, for checking once the references exist.
std::vector<std::optional<Table>> ColdRoundTrips(const Workload& workload,
                                                 uint16_t port);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
