// ledger: the repository's benchmark command. Usage:
//
//   ledger --workload <ingest_quoted|ingest_numeric|serve_mixed>
//          --seed <n> --seconds <s> --trace <0|1>
//          [--trace-out <file.json>] [--commit <id>] [--corrupt-reference]
//
// Prints a host/plan stamp, a human-readable metric table and, as the
// last line of stdout, one JSON object {"correct", "attempted", "failed",
// "metrics"}. --trace 0 reports the end-to-end metrics; --trace 1 the
// per-layer metrics. Exits 1 when any output differed from its
// reference, 2 on a usage or set-up error. --corrupt-reference alters
// every reference table before measuring, to show the correctness gate
// fails the run.

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <optional>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "core/parser.h"
#include "exec/executor.h"
#include "ledger.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using parparaw::Stopwatch;

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string trace_out;
  std::string commit = "unknown";
  bool corrupt_reference = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--corrupt-reference") {
      args->corrupt_reference = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      have_seconds = *end == '\0' && args->seconds > 0 && args->seconds <= 600;
    } else if (flag == "--trace") {
      args->trace = value == "1";
      have_trace = value == "0" || value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else if (flag == "--commit") {
      args->commit = value;
    } else {
      return false;
    }
  }
  return have_workload && have_seed && have_seconds && have_trace;
}

std::string CpuModel() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000, nullptr) >= 0x80000004) {
    for (unsigned int leaf = 0; leaf < 3; ++leaf) {
      __get_cpuid(0x80000002 + leaf, &regs[leaf * 4], &regs[leaf * 4 + 1],
                  &regs[leaf * 4 + 2], &regs[leaf * 4 + 3]);
    }
    char brand[49] = {};
    std::memcpy(brand, regs, sizeof(regs));
    std::string model(brand);
    const size_t first = model.find_first_not_of(' ');
    return first == std::string::npos ? "unknown" : model.substr(first);
  }
#endif
  return "unknown";
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out;
}

const char* TransposeName(parparaw::TransposeMode mode) {
  switch (mode) {
    case parparaw::TransposeMode::kAuto:
      return "auto";
    case parparaw::TransposeMode::kFieldGather:
      return "field_gather";
    case parparaw::TransposeMode::kSymbolSort:
      return "symbol_sort";
  }
  return "?";
}

const char* TaggingName(parparaw::TaggingMode mode) {
  switch (mode) {
    case parparaw::TaggingMode::kRecordTags:
      return "record_tags";
    case parparaw::TaggingMode::kAuto:
      return "auto";
    default:
      return "other";
  }
}

std::string PlanJson(const std::string& label,
                     const parparaw::plan::ParsePlan& plan) {
  char buf[512];
  std::snprintf(buf, sizeof(buf),
                "{\"input\": \"%s\", \"kernel\": \"%s\", \"chunk_size\": %zu, "
                "\"transpose\": \"%s\", \"tagging\": \"%s\", "
                "\"partition_size\": %zu, \"planned\": %s}",
                JsonEscape(label).c_str(),
                parparaw::simd::KernelLevelName(plan.kernel_level),
                plan.chunk_size, TransposeName(plan.transpose_mode),
                TaggingName(plan.tagging_mode), plan.partition_size,
                plan.planned ? "true" : "false");
  return buf;
}

/// Host and plan stamp: where, from what, and under which planner
/// decisions these figures were measured.
std::string StampJson(const Args& args, const Workload& workload, int nproc) {
  std::string plans;
  if (workload.name != "serve_mixed") {
    for (const ParseInput& input : workload.inputs) {
      plans += PlanJson(input.label, input.plan) + ", ";
    }
  }
  for (const Dataset& d : workload.datasets) {
    plans += PlanJson(d.label, d.plan) + ", ";
  }
  if (!plans.empty()) plans.resize(plans.size() - 2);
  char head[1024];
  std::snprintf(
      head, sizeof(head),
      "{\"workload\": \"%s\", \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d, \"nproc\": %d, \"cpu\": \"%s\", "
      "\"commit\": \"%s\", \"build_type\": \"%s\", \"compiler\": \"%s\", "
      "\"open_loop_rate\": %g, \"exec_partition_bytes\": %zu, ",
      JsonEscape(workload.name).c_str(), args.seed, args.seconds,
      args.trace ? 1 : 0, nproc, JsonEscape(CpuModel()).c_str(),
      JsonEscape(args.commit).c_str(), PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER,
      kOpenLoopRate, ExecPartitionBytes());
  return std::string(head) + "\"plans\": [" + plans + "]}";
}

/// Outputs of set-up's cold calls, checked once the references exist.
struct ColdOutputs {
  std::vector<std::optional<Table>> parsed, ingested, served;
};

/// Pool and server construction, the daemon's resolution of every served
/// dataset, and the first call of every entry point on every input.
bool SetUpRig(Workload* workload, int nproc, std::unique_ptr<Rig>* out,
              ColdOutputs* cold) {
  auto rig = std::make_unique<Rig>();
  rig->pool = std::make_unique<ThreadPool>(nproc);
  rig->pool1 = std::make_unique<ThreadPool>(1);
  parparaw::serve::ServeOptions serve_options;
  serve_options.max_inflight_requests = std::max(2, nproc);
  serve_options.pool = rig->pool.get();
  rig->server = std::make_unique<parparaw::serve::Server>(serve_options);
  auto port = rig->server->Start();
  if (!port.ok()) {
    std::fprintf(stderr, "ledger: parparawd failed to start: %s\n",
                 port.status().ToString().c_str());
    return false;
  }
  rig->port = *port;
  if (!ResolveDatasets(workload, rig->pool.get())) return false;

  for (const ParseInput& input : workload->inputs) {
    ParseOptions options = input.options;
    options.pool = rig->pool.get();
    auto parsed = parparaw::Parser::Parse(input.bytes, options);
    cold->parsed.emplace_back();
    if (parsed.ok()) cold->parsed.back() = std::move(parsed->table);
    parparaw::exec::ExecOptions exec_options;
    exec_options.base = options;
    exec_options.partition_size = ExecPartitionBytes();
    parparaw::exec::PipelineExecutor executor;
    auto ingested = executor.IngestBuffer(input.bytes, exec_options);
    cold->ingested.emplace_back();
    if (ingested.ok()) cold->ingested.back() = std::move(ingested->table);
  }
  cold->served = ColdRoundTrips(*workload, rig->port);
  *out = std::move(rig);
  return true;
}

void CheckCold(const Workload& workload, const ColdOutputs& cold,
               Checker* checker) {
  auto same = [](const std::optional<Table>& out, const Table& ref) {
    return out.has_value() && SameTable(*out, ref);
  };
  for (size_t i = 0; i < workload.inputs.size(); ++i) {
    const ParseInput& input = workload.inputs[i];
    checker->Record(same(cold.parsed[i], input.oracle),
                    "cold Parser::Parse " + input.label);
    checker->Record(same(cold.ingested[i], input.oracle),
                    "cold IngestBuffer " + input.label);
  }
  for (size_t i = 0; i < workload.datasets.size(); ++i) {
    checker->Record(same(cold.served[i], workload.datasets[i].parse_ref),
                    "cold parparawd parse " + workload.datasets[i].label);
  }
}

/// A field of /proc/self/status in MB ("VmHWM", "VmRSS"); -1 if absent.
double ProcStatusMb(const char* field) {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return -1;
  char line[256];
  const size_t len = std::strlen(field);
  double mb = -1;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::strncmp(line, field, len) == 0 && line[len] == ':') {
      mb = std::strtod(line + len + 1, nullptr) / 1024.0;  // kB -> MB
      break;
    }
  }
  std::fclose(f);
  return mb;
}

/// Resets this process's resident high-water mark (VmHWM) to its current
/// resident size, so the peak read later covers only what follows.
bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  const bool wrote = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && wrote;
}

/// Process CPU time (every thread, user and system) in seconds.
double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The cost of one set-up. setup_s reports the CPU seconds: on a shared
/// host the wall time also counts the time other tenants take the vCPUs.
/// Ten runs in which the host took 9-32% of the busy time gave a median
/// set-up wall time a third longer than ten runs at 1-6%, against a fifth
/// for the throughput figures. Time taken by other tenants is not charged
/// to this process's CPU clock.
struct SetUpTime {
  double cpu_s = 0;
  double wall_s = 0;
};

/// Every cold set-up of a run.
struct SetUpSamples {
  Samples cpu_s, wall_s;
  void Add(const SetUpTime& time) {
    cpu_s.Add(time.cpu_s);
    wall_s.Add(time.wall_s);
  }
};

/// One set-up, timed into `time`, then the references and the check of
/// set-up's outputs against them. Set-up is cold only when it is the
/// first call into the library in its process, which is why the workload
/// is generated without one and the references are built after.
/// `setup_rss_mb` receives the process's peak resident size during
/// set-up: the inputs plus the first call of every entry point.
bool ColdSetUp(Workload* workload, int nproc, bool corrupt_reference,
               Checker* checker, std::unique_ptr<Rig>* rig, SetUpTime* time,
               double* setup_rss_mb, double* seq_ms) {
  ColdOutputs cold;
  if (!ResetPeakRss()) {
    std::fprintf(stderr, "ledger: cannot reset the peak RSS\n");
    return false;
  }
  Stopwatch watch;
  const double cpu_start = ProcessCpuSeconds();
  if (!SetUpRig(workload, nproc, rig, &cold)) return false;
  time->cpu_s = ProcessCpuSeconds() - cpu_start;
  time->wall_s = watch.ElapsedSeconds();
  *setup_rss_mb = ProcStatusMb("VmHWM");
  if (!BuildReferences(workload, seq_ms)) return false;
  if (corrupt_reference) {
    for (ParseInput& input : workload->inputs) ++input.oracle.num_rows;
    for (Dataset& d : workload->datasets) ++d.parse_ref.num_rows;
  }
  CheckCold(*workload, cold, checker);
  return true;
}

/// Reads exactly `size` bytes unless the pipe closes or fails first;
/// returns the count read.
size_t ReadFull(int fd, void* buf, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = read(fd, static_cast<char*>(buf) + got, size - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<size_t>(n);
  }
  return got;
}

/// Cold set-ups in child processes. The children are forked while this
/// process has a single thread and has not called into the library, so
/// each child's set-up is its process's first library call. Each child
/// then waits until RunNext releases it, so that the set-ups can be spread
/// over the measuring window instead of all landing in its first seconds,
/// where one spell of load from other tenants would slow them all. The
/// destructor releases every child that has not run and waits for it.
class SetUpChildren {
 public:
  SetUpChildren() = default;
  SetUpChildren(const SetUpChildren&) = delete;
  SetUpChildren& operator=(const SetUpChildren&) = delete;

  ~SetUpChildren() {
    for (size_t i = next_; i < children_.size(); ++i) Reap(children_[i]);
  }

  /// Forks `count` children that each run ColdSetUp once released.
  bool Fork(int count, Workload* workload, int nproc, bool corrupt_reference) {
    for (int i = 0; i < count; ++i) {
      int go[2], report[2];
      if (pipe(go) != 0) return false;
      if (pipe(report) != 0) {
        close(go[0]);
        close(go[1]);
        return false;
      }
      std::fflush(stdout);
      std::fflush(stderr);
      const pid_t pid = fork();
      if (pid < 0) {
        for (int fd : {go[0], go[1], report[0], report[1]}) close(fd);
        return false;
      }
      if (pid == 0) {
        // The earlier children's pipe ends must not keep them waiting.
        for (const Child& c : children_) {
          close(c.go);
          close(c.report);
        }
        close(go[1]);
        close(report[0]);
        RunChild(go[0], report[1], workload, nproc, corrupt_reference);
      }
      close(go[0]);
      close(report[1]);
      children_.push_back({pid, go[1], report[0]});
    }
    return true;
  }

  /// Releases the next child, waits for its report and adds its set-up
  /// time to `setups` and its checks to `checker`. False when no child is
  /// left or it failed.
  bool RunNext(Checker* checker, SetUpSamples* setups) {
    if (next_ == children_.size()) return false;
    Child& child = children_[next_++];
    const char go = 1;
    Report report;
    const bool released = write(child.go, &go, 1) == 1;
    const bool got = released && ReadFull(child.report, &report,
                                          sizeof(report)) == sizeof(report);
    const int status = Reap(child);
    if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0 ||
        report.ok == 0) {
      return false;
    }
    setups->Add(report.time);
    checker->Add(report.attempted, report.failed);
    return true;
  }

 private:
  struct Child {
    pid_t pid;
    int go;      // write end: one byte releases the child
    int report;  // read end: the child's Report
  };
  struct Report {
    int ok = 0;
    SetUpTime time;
    int64_t attempted = 0, failed = 0;
  };

  [[noreturn]] static void RunChild(int go, int out, Workload* workload,
                                    int nproc, bool corrupt_reference) {
    char byte = 0;
    // A closed pipe instead of the byte means the parent gave up.
    if (ReadFull(go, &byte, 1) != 1) _exit(0);
    Report report;
    Checker checker;
    std::unique_ptr<Rig> rig;
    double rss_mb = 0, seq_ms = 0;
    report.ok = ColdSetUp(workload, nproc, corrupt_reference, &checker, &rig,
                          &report.time, &rss_mb, &seq_ms);
    rig.reset();
    report.attempted = checker.attempted();
    report.failed = checker.failed();
    const bool sent = write(out, &report, sizeof(report)) ==
                      static_cast<ssize_t>(sizeof(report));
    _exit(sent ? 0 : 1);
  }

  /// Closes the child's pipes (releasing it to exit if it has not run)
  /// and waits for it; returns its wait status.
  static int Reap(const Child& child) {
    close(child.go);
    close(child.report);
    int status = 0;
    while (waitpid(child.pid, &status, 0) < 0 && errno == EINTR) {
    }
    return status;
  }

  std::vector<Child> children_;
  size_t next_ = 0;
};

double Gbps(int64_t bytes, double ms) {
  return ms > 0 ? static_cast<double>(bytes) / (ms * 1e6) : 0;
}

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

/// The wall time of a pass as the end-to-end figures take it.
double PassMs(const Samples& passes) {
  return passes.Quantile(kFastQuantile);
}

void EndToEnd(const IngestFigures& ingest, double setup_s, MetricList* m) {
  m->Set("setup_s", setup_s, "s");
  m->Set("parse_gbps", Gbps(ingest.bytes_per_pass, PassMs(ingest.parse_ms)),
         "GB/s");
  m->Set("parse_1w_gbps",
         Gbps(ingest.bytes_per_pass, PassMs(ingest.parse_1w_ms)), "GB/s");
  m->Set("ingest_gbps", Gbps(ingest.bytes_per_pass, PassMs(ingest.ingest_ms)),
         "GB/s");
}

void PerLayer(const IngestFigures& in, const ServeFigures& serve,
              double seq_ms, double setup_rss_mb, MetricList* m) {
  const double bytes = static_cast<double>(in.bytes_per_pass);
  const double traced_wall = in.traced_ms.Median();
  m->Set("plan.ms", in.plan_ms.Median(), "ms");
  m->Set("core.scan_stage.ms", in.scan_stage_ms.Median(), "ms");
  m->Set("core.context.ms", in.context_ms.Median(), "ms");
  m->Set("core.scan.ms", in.scan_ms.Median(), "ms");
  m->Set("core.tag.ms", in.tag_ms.Median(), "ms");
  m->Set("core.partition.ms", in.partition_ms.Median(), "ms");
  m->Set("core.convert.ms", in.convert_ms.Median(), "ms");
  m->Set("core.residual.ms", in.residual_ms.Median(), "ms");
  m->Set("core.residual_share", Ratio(in.residual_ms.Median(), traced_wall),
         "ratio");
  m->Set("core.dfa_transitions_per_byte",
         Ratio(static_cast<double>(in.work.dfa_transitions), bytes), "count/B");
  m->Set("core.sort_bytes_per_byte",
         Ratio(static_cast<double>(in.work.sort_bytes_moved), bytes), "B/B");
  m->Set("core.tag_bytes_per_byte",
         Ratio(static_cast<double>(in.work.tag_bytes_written), bytes), "B/B");
  m->Set("core.transpose_peak_mb",
         static_cast<double>(in.work.transpose_peak_bytes) / (1 << 20), "MB");
  m->Set("core.speedup_x", Ratio(PassMs(in.parse_1w_ms), PassMs(in.parse_ms)),
         "x");
  m->Set("core.work_efficiency", Ratio(seq_ms, PassMs(in.parse_1w_ms)), "x");
  m->Set("baseline.seq_ms", seq_ms, "ms");
  m->Set("setup.peak_rss_mb", setup_rss_mb, "MB");
  m->Set("sched.steals", in.steals.Median(), "count");
  m->Set("sched.waits", in.waits.Median(), "count");
  m->Set("exec.read_busy.ms", in.exec_read_ms.Median(), "ms");
  m->Set("exec.scan_busy.ms", in.exec_scan_ms.Median(), "ms");
  m->Set("exec.sort_busy.ms", in.exec_sort_ms.Median(), "ms");
  m->Set("exec.convert_busy.ms", in.exec_convert_ms.Median(), "ms");
  m->Set("exec.overlap_x", in.exec_overlap_x.Median(), "x");
  m->Set("exec.max_inflight", in.exec_max_inflight.Median(), "count");
  m->Set("exec.partitions", in.exec_partitions.Median(), "count");
  m->Set("serve.rtt.parse_ms", serve.rtt_parse_ms.Median(), "ms");
  m->Set("serve.rtt.stream_ms", serve.rtt_stream_ms.Median(), "ms");
  m->Set("serve.rtt.query_ms", serve.rtt_query_ms.Median(), "ms");
  m->Set("serve.inproc_ms", serve.inproc_ms.Median(), "ms");
  m->Set("columnar.serialize_ms", serve.serialize_ms.Median(), "ms");
  m->Set("columnar.deserialize_ms", serve.deserialize_ms.Median(), "ms");
  m->Set("serve.unattributed_ms", serve.unattributed_ms.Median(), "ms");
  m->Set("serve.unattributed_share",
         Ratio(serve.unattributed_ms.Median(), serve.rtt_parse_ms.Median()),
         "ratio");
  m->Set("serve.shed_ratio",
         Ratio(static_cast<double>(serve.busy_sheds),
               static_cast<double>(serve.attempts)),
         "ratio");
  m->Set("serve.attempts_per_request",
         Ratio(static_cast<double>(serve.attempts),
               static_cast<double>(serve.requests)),
         "count");
  m->Set("serve.backoff_ms",
         Ratio(serve.backoff_ms, static_cast<double>(serve.requests)), "ms");
  m->Set("serve.lateness_ms", serve.lateness_ms.Quantile(0.99), "ms");
  m->Set("trace.overhead_ms", traced_wall - in.parse_ms.Median(), "ms");
}

void PrintTable(const MetricList& metrics) {
  for (const Metric& m : metrics.all()) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value,
                m.unit.c_str());
  }
}

void PrintDistribution(const char* name, const Samples& samples) {
  const Samples::Tail tail = samples.HighestTail();
  std::printf(
      "  %-22s %6zu %10.3f %10.3f %10.3f %10.3f %10.3f %10.3f  p%.1f=%.3f\n",
      name, samples.size(), samples.Quantile(0), samples.Quantile(0.1),
      samples.Quantile(0.25), samples.Quantile(0.5), samples.Quantile(0.75),
      samples.Quantile(0.9), tail.percentile, tail.value);
}

void PrintSamples(const IngestFigures& ingest, const ServeFigures& serve) {
  std::printf("samples (ms): %-9s %6s %10s %10s %10s %10s %10s %10s  %s\n",
              "", "n", "min", "p10", "p25", "p50", "p75", "p90", "tail");
  PrintDistribution("parse pass", ingest.parse_ms);
  PrintDistribution("parse pass, 1 worker", ingest.parse_1w_ms);
  PrintDistribution("ingest pass", ingest.ingest_ms);
  PrintDistribution("open-loop latency", serve.open_latency_ms);
  PrintDistribution("open-loop window p50", serve.open_window_p50_ms);
  PrintDistribution("open-loop lateness", serve.lateness_ms);
  PrintDistribution("closed window (req/s)", serve.closed_window_rps);
  std::printf("closed loop: %" PRId64 " requests; open loop: %zu requests\n",
              serve.closed_requests, serve.open_latency_ms.size());
  std::printf(
      "parparawd: requests %" PRId64 " attempts %" PRId64 " busy_shed %" PRId64
      " protocol_errors %" PRId64 " deadline_exceeded %" PRId64 "\n",
      serve.server.requests, serve.attempts, serve.server.busy_shed,
      serve.server.protocol_errors, serve.server.deadline_exceeded);
}

void PrintLayerSum(const IngestFigures& ingest, const ServeFigures& serve) {
  const double wall = ingest.traced_ms.Median();
  const double rtt = serve.rtt_parse_ms.Median();
  std::printf("layer sum (not gated):\n");
  std::printf("  core.residual.ms       %10.3f ms = %5.1f%% of the %.3f ms "
              "traced parse wall\n",
              ingest.residual_ms.Median(),
              100 * Ratio(ingest.residual_ms.Median(), wall), wall);
  std::printf("  serve.unattributed_ms  %10.3f ms = %5.1f%% of the %.3f ms "
              "parse round trip\n",
              serve.unattributed_ms.Median(),
              100 * Ratio(serve.unattributed_ms.Median(), rtt), rtt);
  std::printf("  tracing overhead       %10.3f ms per parse pass (traced "
              "%.3f ms - untraced %.3f ms)\n",
              wall - ingest.parse_ms.Median(), wall, ingest.parse_ms.Median());
  std::printf("span self time (name, count, total ms, self ms):\n");
  for (const auto& t : SpanRecorder::Get().SelfTimes()) {
    std::printf("  %-32s %8" PRId64 " %12.3f %12.3f\n", t.name.c_str(), t.count,
                t.total_ms, t.self_ms);
  }
}

void PrintResult(const Checker& checker, const MetricList& metrics) {
  std::string json = "{\"correct\": ";
  json += checker.failed() == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(checker.attempted());
  json += ", \"failed\": " + std::to_string(checker.failed());
  json += ", \"metrics\": {";
  bool first = true;
  for (const Metric& m : metrics.all()) {
    char buf[256];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  first ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
    json += buf;
    first = false;
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

int Main(int argc, char** argv) {
  // Keep every freed buffer in the heap for reuse: glibc neither maps
  // large blocks separately nor trims the heap. A 32 MB parse allocates
  // about 124 MB of working buffers; with glibc's defaults (or any mmap
  // threshold, whose maximum is 32 MiB) some of them are fresh mappings on
  // every pass, about 31,700 page faults per pass on a 4-vCPU host. The
  // kernel's cost for those faults moves with other tenants' memory
  // traffic, and whether a buffer was reused or mapped anew changed with
  // the process's allocation history, so one 32 MB parse took 100 ms in
  // one process and 180 ms in the next. With reuse, a pass faults about
  // 650 times and times the library's own work. The first call of every
  // entry point still pays for its fresh memory; setup_s includes it.
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, INT_MAX);
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: ledger --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--trace-out <file>] [--commit <id>] "
                 "[--corrupt-reference]\n");
    return 2;
  }
  const int nproc =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  if (args.trace) SpanRecorder::Get().Enable();

  Workload workload;
  if (!GenerateWorkload(args.workload, args.seed, &workload)) {
    std::fprintf(stderr, "ledger: unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }

  // setup_s is the median of kColdSetUps cold set-ups, each one the first
  // call into the library in its process: one in this process before the
  // measuring window, the others in children released after each cycle of
  // it. The traced run does not report setup_s and sets up once; it
  // reports that set-up's peak resident size.
  constexpr int kCycles = 4;
  constexpr int kColdSetUps = kCycles + 1;
  Checker checker;
  SetUpSamples setups;
  SetUpChildren children;
  if (!args.trace && !children.Fork(kColdSetUps - 1, &workload, nproc,
                                    args.corrupt_reference)) {
    std::fprintf(stderr, "ledger: cannot fork the set-up processes\n");
    return 2;
  }
  std::unique_ptr<Rig> rig;
  SetUpTime setup_here;
  double setup_rss_mb = 0, seq_ms = 0;
  if (!ColdSetUp(&workload, nproc, args.corrupt_reference, &checker, &rig,
                 &setup_here, &setup_rss_mb, &seq_ms)) {
    std::fprintf(stderr, "ledger: set-up failed\n");
    return 2;
  }
  setups.Add(setup_here);

  const std::string stamp = StampJson(args, workload, nproc);
  std::printf("{\"stamp\": %s}\n", stamp.c_str());
  std::printf("resident after set-up and references: %.1f MB\n",
              ProcStatusMb("VmRSS"));
  std::fflush(stdout);

  // The measuring window is cut into cycles of parse/ingest rounds, a
  // closed loop and an open loop, so that a spell of load from outside
  // the process (other tenants of a shared host) is spread over every
  // figure instead of wiping out one of them. A child's cold set-up
  // follows each cycle while this process waits.
  const double cycle_s = args.seconds / kCycles;
  IngestFigures ingest;
  ServeFigures serve;
  for (int cycle = 0; cycle < kCycles; ++cycle) {
    RunIngestRounds(workload, rig.get(), cycle_s * workload.ingest_share,
                    args.trace, &checker, &ingest);
    RunServeLoops(workload, rig.get(), nproc, args.seed, cycle,
                  cycle_s * workload.closed_share,
                  cycle_s * workload.open_share, &checker, &serve);
    if (!args.trace && !children.RunNext(&checker, &setups)) {
      std::fprintf(stderr, "ledger: set-up failed in a child process\n");
      return 2;
    }
  }
  serve.server = rig->server->stats();
  if (args.trace) AttributeServe(workload, rig.get(), &checker, &serve);
  if (args.trace) {
    // Two more oracle passes, so baseline.seq_ms is a median of three.
    Samples seq;
    seq.Add(seq_ms);
    seq.Add(TimeSequential(workload));
    seq.Add(TimeSequential(workload));
    seq_ms = seq.Median();
  }
  rig.reset();

  MetricList metrics;
  if (args.trace) {
    PerLayer(ingest, serve, seq_ms, setup_rss_mb, &metrics);
  } else {
    EndToEnd(ingest, setups.cpu_s.Median(), &metrics);
  }
  std::printf("workload %s, seed %" PRIu64 ", %g s, trace %d\n",
              workload.name.c_str(), args.seed, args.seconds,
              args.trace ? 1 : 0);
  PrintSamples(ingest, serve);
  if (args.trace) PrintLayerSum(ingest, serve);
  std::printf("  %-32s %14.6g %s (%" PRId64 " failed of %" PRId64 ")\n",
              "error_rate",
              Ratio(static_cast<double>(checker.failed()),
                    static_cast<double>(checker.attempted())),
              "ratio", checker.failed(), checker.attempted());
  PrintTable(metrics);
  if (!args.trace) {
    // Printed, not gated: on a shared host the run-to-run spread of these
    // exceeds every bound the benchmark may set; tails measure the host's
    // worst moments, and the serving figures amplify other tenants' CPU
    // steal through queueing (see perfbench/README.md).
    const Samples::Tail parse_tail = ingest.parse_ms.HighestTail();
    const Samples::Tail ingest_tail = ingest.ingest_ms.HighestTail();
    std::printf("not in the result line:\n");
    std::printf("  %-32s %14.6g ms (p%.1f of %zu passes)\n", "parse_tail_ms",
                parse_tail.value, parse_tail.percentile, parse_tail.count);
    std::printf("  %-32s %14.6g ms (p%.1f of %zu passes)\n", "ingest_tail_ms",
                ingest_tail.value, ingest_tail.percentile, ingest_tail.count);
    std::printf("  %-32s %14.6g req/s (p75 of %zu closed-loop windows)\n",
                "serve_rps", serve.closed_window_rps.Quantile(1 - kFastQuantile),
                serve.closed_window_rps.size());
    std::printf("  %-32s %14.6g ms (p25 of %zu open-loop window medians)\n",
                "serve_p50_ms", serve.open_window_p50_ms.Quantile(kFastQuantile),
                serve.open_window_p50_ms.size());
    std::printf("  %-32s %14.6g ms\n", "serve_p99_ms",
                serve.open_latency_ms.Quantile(0.99));
    std::printf("  %-32s %14.6g s (of %zu cold set-ups)\n", "setup_s min",
                setups.cpu_s.Quantile(0), setups.cpu_s.size());
    std::printf("  %-32s %14.6g s (median wall time of the same)\n",
                "setup wall", setups.wall_s.Median());
  }
  if (args.trace && !args.trace_out.empty()) {
    if (SpanRecorder::Get().WriteChromeTrace(args.trace_out, stamp)) {
      std::printf("trace: %zu spans (%" PRId64 " dropped) -> %s\n",
                  SpanRecorder::Get().size(), SpanRecorder::Get().dropped(),
                  args.trace_out.c_str());
    } else {
      std::fprintf(stderr, "ledger: cannot write %s\n", args.trace_out.c_str());
    }
  }
  PrintResult(checker, metrics);
  return checker.failed() == 0 ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
