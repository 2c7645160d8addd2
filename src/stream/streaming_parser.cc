#include "stream/streaming_parser.h"

#include <vector>

#include "exec/executor.h"

namespace parparaw {

namespace {

exec::ExecOptions ExecFor(const StreamingOptions& options) {
  exec::ExecOptions exec_options;
  exec_options.base = options.base;
  exec_options.partition_size = options.partition_size;
  return exec_options;
}

// Derives the Fig. 7 stage durations of every partition the executor
// delivered and schedules them on the modelled device.
Result<StreamingResult> ModelTimeline(Result<exec::IngestResult> ingested,
                                      const StreamingOptions& options) {
  PARPARAW_RETURN_NOT_OK(ingested.status());
  const DeviceModel device(options.device);
  const int num_states = options.base.format.dfa.num_states() > 0
                             ? options.base.format.dfa.num_states()
                             : 6;  // RFC 4180 default
  StreamingResult result;
  result.table = std::move(ingested->table);
  result.quarantine = std::move(ingested->quarantine);
  result.kernel_level = ingested->kernel_level;
  result.wall_seconds = ingested->stats.wall_seconds;
  result.num_partitions = ingested->stats.num_partitions;
  result.timings = ingested->timings;
  result.work = ingested->work;

  std::vector<PartitionStages> stages;
  stages.reserve(ingested->partitions.size());
  for (const exec::PartitionFacts& part : ingested->partitions) {
    PartitionStages stage;
    stage.h2d_seconds = options.pcie.H2dSeconds(part.bytes);
    stage.d2h_seconds = options.pcie.D2hSeconds(part.output_bytes);
    stage.carry_copy_seconds = device.MemorySeconds(2 * part.carry_bytes);
    stage.parse_seconds =
        options.model_parse_stage
            ? device
                      .ModelPipeline(part.work, result.table.num_columns(),
                                     num_states)
                      .TotalMs() /
                  1e3
            : part.parse_ms / 1e3;
    result.modeled_serial_seconds += stage.h2d_seconds + stage.parse_seconds +
                                     stage.d2h_seconds +
                                     stage.carry_copy_seconds;
    stages.push_back(stage);
  }
  result.timeline = StreamingTimeline::Schedule(stages);
  result.modeled_end_to_end_seconds = result.timeline.makespan;
  return result;
}

}  // namespace

Result<StreamingResult> StreamingParser::Parse(
    std::string_view input, const StreamingOptions& options) {
  exec::PipelineExecutor executor;
  return ModelTimeline(executor.IngestBuffer(input, ExecFor(options)),
                       options);
}

Result<StreamingResult> StreamingParser::ParseFile(
    const std::string& path, const StreamingOptions& options) {
  exec::PipelineExecutor executor;
  return ModelTimeline(executor.IngestFile(path, ExecFor(options)), options);
}

}  // namespace parparaw
