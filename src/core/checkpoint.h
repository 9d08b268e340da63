// Checkpoint/resume for long pipeline runs (DESIGN.md §5j).
//
// run_checkpointed_pipeline runs the ordinary in-process pipeline with a
// safe-point hook (core/pipeline.h: PipelineHooks) that writes an
// `fsct-ckpt-v1` snapshot, and stops cooperatively on SIGTERM/SIGINT or the
// test hook.  A later run with `resume_path` restores the partial result and
// the observability totals, skips the completed work and finishes with the
// report an uninterrupted run would have written, bitwise.
//
// The file is NDJSON — one JSON object per line — so a truncated file is
// detected structurally (the `end` sentinel carries the expected line count)
// and every parse error is anchored "<path>: line N: ..." like the rest of
// the JSON surfaces.
//
// A checkpoint binds to the run that wrote it through `hash`
// (checkpoint_binding_hash): a digest of the post-TPI netlist, the scan
// design, the collapsed fault list and every result-affecting pipeline
// option.  Resuming against a different circuit or config is refused up
// front instead of producing a silently wrong report.
//
// Writes are atomic: serialize to `<path>.tmp`, fsync, rename over `<path>`.
// A crash mid-write leaves either the previous complete checkpoint or a stray
// temp file — never a half-written checkpoint under the real name.
#pragma once

#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/pipeline.h"

namespace fsct {

/// Everything a checkpoint stores: the pipeline resume state plus the
/// observability totals accumulated so far (counters, histogram buckets,
/// per-fault attribution), so a resumed run's report carries the full-run
/// tallies rather than only the post-resume slice.
struct CheckpointData {
  std::uint64_t hash = 0;  ///< checkpoint_binding_hash of the writing run
  PipelineResume resume;
  std::vector<std::pair<std::string, std::uint64_t>> counters;
  struct HistState {
    std::string name;
    std::uint64_t sum = 0;
    std::vector<std::uint64_t> buckets;
  };
  std::vector<HistState> hists;
  struct AttrCell {
    std::size_t fault = 0;
    std::string column;
    std::uint64_t count = 0;
  };
  std::vector<AttrCell> attr;
};

/// Serializes to the NDJSON text (terminating newline included).
std::string serialize_checkpoint(const CheckpointData& data);

/// Parses checkpoint text.  `name` anchors error messages (usually the file
/// path).  Throws JsonParseError on malformed lines, truncation (missing or
/// wrong `end` sentinel), unknown schema or section, or internally
/// inconsistent state.
CheckpointData parse_checkpoint(const std::string& text,
                                const std::string& name);

/// Atomic write: <path>.tmp + fsync + rename.  Throws std::runtime_error on
/// I/O failure (the temp file is removed best-effort).
void write_checkpoint_atomic(const std::string& path,
                             const CheckpointData& data);

/// Reads and parses `path`; throws on I/O or parse failure.
CheckpointData read_checkpoint(const std::string& path);

/// Digest binding a checkpoint to the run that wrote it: post-TPI netlist,
/// scan design (mode pin, PI constraints, chains), collapsed fault list and
/// every result-affecting pipeline option.  Deliberately excludes execution
/// knobs that cannot change the result (jobs, simd_width, observability).
std::uint64_t checkpoint_binding_hash(const ScanModeModel& model,
                                      std::span<const Fault> faults,
                                      const PipelineOptions& opt);

/// A resume the run refused: foreign binding hash, or observability names
/// this build does not know.
struct CheckpointError : std::runtime_error {
  using std::runtime_error::runtime_error;
};

struct CheckpointOptions {
  /// Checkpoint file; empty = no checkpointing.  Written atomically at safe
  /// points.  While it is set, SIGTERM and SIGINT request a cooperative stop
  /// at the next safe point (final checkpoint written, PipelineStopped
  /// thrown) for the duration of the run.
  std::string checkpoint_path;
  /// Minimum milliseconds between periodic checkpoint writes; 0 = write at
  /// every safe point.  The first safe point and a stop always write.
  int checkpoint_interval_ms = 0;
  /// Resume from this checkpoint; empty = fresh run.  The file's binding
  /// hash must match this run's circuit + config or the run is refused.
  std::string resume_path;
  /// Test hook: stop cooperatively at the Nth safe point (0 = never), as if
  /// a signal had arrived there.
  int stop_after_safepoints = 0;
};

/// Runs the pipeline with checkpointing and/or resume.  `opt.hooks` and
/// `opt.resume` are supplied by the runner.  Throws PipelineStopped after a
/// cooperative stop (the checkpoint is on disk), CheckpointError when a
/// resume is refused, and the checkpoint reader's errors on a bad file.
PipelineResult run_checkpointed_pipeline(const ScanModeModel& model,
                                         std::span<const Fault> faults,
                                         const PipelineOptions& opt,
                                         const CheckpointOptions& copt);

}  // namespace fsct
