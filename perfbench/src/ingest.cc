// Parse and ingest phases: Parser::Parse at nproc and 1 worker, and
// PipelineExecutor::IngestBuffer at nproc, every output checked against
// the SequentialParser oracle. The traced run additionally cuts the parse
// into the public calls Parser::Parse makes (plan::PlanStream, then
// StagedParse::Scan / Partition / Convert) and times each under a span.

#include <algorithm>

#include "core/parser.h"
#include "core/staged_parse.h"
#include "exec/executor.h"
#include "ledger.h"
#include "obs/metrics.h"
#include "util/stopwatch.h"

namespace perfbench {
namespace {

using parparaw::ParseOutput;
using parparaw::Stopwatch;

std::vector<ParseOptions> OptionsOn(const Workload& workload,
                                    ThreadPool* pool) {
  std::vector<ParseOptions> options;
  for (const ParseInput& input : workload.inputs) {
    options.push_back(input.options);
    options.back().pool = pool;
  }
  return options;
}

/// One untraced Parser::Parse of every input; returns the wall time in ms
/// and checks each output.
double ParsePass(const Workload& workload,
                 const std::vector<ParseOptions>& options, Checker* checker) {
  std::vector<parparaw::Result<ParseOutput>> outputs;
  outputs.reserve(workload.inputs.size());
  Stopwatch watch;
  for (size_t i = 0; i < workload.inputs.size(); ++i) {
    outputs.push_back(
        parparaw::Parser::Parse(workload.inputs[i].bytes, options[i]));
  }
  const double ms = watch.ElapsedMillis();
  for (size_t i = 0; i < outputs.size(); ++i) {
    checker->Record(outputs[i].ok() &&
                        SameTable(outputs[i]->table, workload.inputs[i].oracle),
                    "Parser::Parse " + workload.inputs[i].label);
  }
  return ms;
}

/// Per-pass figures of a traced (decomposed) parse.
struct TracedPass {
  double wall = 0, plan = 0, scan_stage = 0, partition = 0, convert = 0;
  parparaw::StepTimings timings;
  parparaw::WorkCounters work;
};

/// The steps of Parser::Parse, each under its own span. Mirrors
/// src/core/parser.cc for inputs without a user dialect.
TracedPass TracedParsePass(const Workload& workload,
                           const std::vector<ParseOptions>& options,
                           Checker* checker) {
  TracedPass pass;
  for (size_t i = 0; i < workload.inputs.size(); ++i) {
    const ParseInput& input = workload.inputs[i];
    ParseOutput out;
    parparaw::Status status;
    {
      Span parse("core.parse");
      {
        ParseOptions resolved = options[i];
        status = resolved.Validate();
        if (status.ok()) {
          Span span("plan.PlanStream");
          status = parparaw::plan::PlanStream(
                       input.bytes,
                       input.bytes.size() > resolved.sample_budget, &resolved)
                       .status();
          pass.plan += span.ElapsedMs();
        }
        parparaw::StagedParse staged;
        if (status.ok()) {
          Span span("core.StagedParse::Scan");
          status = staged.Scan(input.bytes, resolved);
          pass.scan_stage += span.ElapsedMs();
        }
        if (status.ok() && !staged.finished()) {
          Span span("core.StagedParse::Partition");
          status = staged.Partition();
          pass.partition += span.ElapsedMs();
        }
        if (status.ok() && !staged.finished()) {
          Span span("core.StagedParse::Convert");
          status = staged.Convert();
          pass.convert += span.ElapsedMs();
        }
        if (status.ok()) out = staged.TakeOutput();
      }
      // The StagedParse and its working buffers are gone here, as when
      // Parser::Parse returns; their release is part of the residual.
      pass.wall += parse.ElapsedMs();
    }
    checker->Record(status.ok() && SameTable(out.table, input.oracle),
                    "StagedParse " + input.label);
    pass.timings += out.timings;
    pass.work += out.work;
  }
  return pass;
}

int64_t SchedCounter(const char* name) {
  parparaw::obs::Counter* counter =
      parparaw::obs::MetricsRegistry::Global().GetCounter(name);
  return counter != nullptr ? counter->Value() : 0;
}

/// One IngestBuffer of every input; returns the wall time in ms, checks
/// each output and accumulates the executor's own stats into `stats`.
double IngestPass(const Workload& workload,
                  const std::vector<ParseOptions>& options, Checker* checker,
                  parparaw::exec::IngestStats* stats) {
  std::vector<parparaw::Result<parparaw::exec::IngestResult>> results;
  results.reserve(workload.inputs.size());
  Stopwatch watch;
  for (size_t i = 0; i < workload.inputs.size(); ++i) {
    parparaw::exec::ExecOptions exec_options;
    exec_options.base = options[i];
    exec_options.partition_size = ExecPartitionBytes();
    parparaw::exec::PipelineExecutor executor;
    Span span("exec.IngestBuffer");
    results.push_back(
        executor.IngestBuffer(workload.inputs[i].bytes, exec_options));
  }
  const double ms = watch.ElapsedMillis();
  for (size_t i = 0; i < results.size(); ++i) {
    const bool ok = results[i].ok() &&
                    SameTable(results[i]->table, workload.inputs[i].oracle);
    checker->Record(ok, "IngestBuffer " + workload.inputs[i].label);
    if (!results[i].ok()) continue;
    const parparaw::exec::IngestStats& s = results[i]->stats;
    stats->num_partitions += s.num_partitions;
    stats->max_inflight = std::max(stats->max_inflight, s.max_inflight);
    stats->wall_seconds += s.wall_seconds;
    stats->read_seconds += s.read_seconds;
    stats->scan_seconds += s.scan_seconds;
    stats->sort_seconds += s.sort_seconds;
    stats->convert_seconds += s.convert_seconds;
  }
  return ms;
}

/// A traced parse pass at nproc workers, its figures recorded. The
/// scheduler counts steals and waits only while the global registry is
/// enabled, so it is enabled for traced passes alone.
void TracedRound(const Workload& workload,
                 const std::vector<ParseOptions>& options, Checker* checker,
                 IngestFigures* out) {
  parparaw::obs::MetricsRegistry& registry =
      parparaw::obs::MetricsRegistry::Global();
  registry.SetEnabled(true);
  const int64_t steals = SchedCounter("sched.steals");
  const int64_t waits = SchedCounter("sched.waits");
  const TracedPass pass = TracedParsePass(workload, options, checker);
  const int64_t steals_after = SchedCounter("sched.steals");
  const int64_t waits_after = SchedCounter("sched.waits");
  registry.SetEnabled(false);
  out->traced_ms.Add(pass.wall);
  out->steals.Add(static_cast<double>(steals_after - steals));
  out->waits.Add(static_cast<double>(waits_after - waits));
  out->plan_ms.Add(pass.plan);
  out->scan_stage_ms.Add(pass.scan_stage);
  out->partition_ms.Add(pass.partition);
  out->convert_ms.Add(pass.convert);
  out->residual_ms.Add(pass.wall - pass.plan - pass.scan_stage -
                       pass.partition - pass.convert);
  out->context_ms.Add(pass.timings.parse_ms);
  out->scan_ms.Add(pass.timings.scan_ms);
  out->tag_ms.Add(pass.timings.tag_ms);
  out->work = pass.work;
}

}  // namespace

void RunIngestRounds(const Workload& workload, Rig* rig, double seconds,
                     bool traced, Checker* checker,
                     IngestFigures* out) {
  out->bytes_per_pass = 0;
  for (const ParseInput& input : workload.inputs) {
    out->bytes_per_pass += static_cast<int64_t>(input.bytes.size());
  }
  const std::vector<ParseOptions> on_n = OptionsOn(workload, rig->pool.get());
  const std::vector<ParseOptions> on_1 = OptionsOn(workload, rig->pool1.get());

  // The three measurements are interleaved round by round rather than run
  // one after another, so each samples the whole measuring window and a
  // burst of load from outside the process lands on all of them alike.
  // Set-up has already called every entry point once in this process, so
  // no round is discarded. Rounds go on while, at the mean round time so
  // far, the next one would end less than half a round past `seconds`, so
  // the phase lasts `seconds` on average.
  Stopwatch watch;
  for (int round = 0;
       round == 0 ||
       watch.ElapsedSeconds() * (round + 0.5) / round <= seconds;
       ++round) {
    // In the traced run each untraced parse pass has a traced twin next to
    // it, first after it and then before it in turn, so the difference of
    // their medians is the tracing overhead rather than an order effect.
    const bool twin_first = traced && round % 2 != 0;
    if (twin_first) TracedRound(workload, on_n, checker, out);
    const double parse = ParsePass(workload, on_n, checker);
    if (traced && !twin_first) TracedRound(workload, on_n, checker, out);
    const double parse_1w = ParsePass(workload, on_1, checker);
    parparaw::exec::IngestStats stats;
    const double ingest = IngestPass(workload, on_n, checker, &stats);
    out->parse_ms.Add(parse);
    out->parse_1w_ms.Add(parse_1w);
    out->ingest_ms.Add(ingest);
    const double busy = stats.read_seconds + stats.scan_seconds +
                        stats.sort_seconds + stats.convert_seconds;
    out->exec_read_ms.Add(stats.read_seconds * 1e3);
    out->exec_scan_ms.Add(stats.scan_seconds * 1e3);
    out->exec_sort_ms.Add(stats.sort_seconds * 1e3);
    out->exec_convert_ms.Add(stats.convert_seconds * 1e3);
    out->exec_overlap_x.Add(
        stats.wall_seconds > 0 ? busy / stats.wall_seconds : 0);
    out->exec_max_inflight.Add(stats.max_inflight);
    out->exec_partitions.Add(stats.num_partitions);
  }
}

}  // namespace perfbench
