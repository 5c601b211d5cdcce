// Copyright 2026 The LTAM Authors.
// Binary codec for sealed cold segments (engine/cold_segment.h).
//
// Unlike the text record lines of the other durable files
// (storage/codec.h), cold segments hold millions of machine-written
// rows, so they get a compact binary layout: a header (row count,
// sealed-event count, time bounds), then the four columns back to back,
// each length-prefixed and varint/delta encoded —
//
//   subjects   unsigned deltas vs the previous row (the sort order makes
//              them non-negative, and decoding deltas *enforces* the
//              sortedness queries binary-search on)
//   locations  raw varints
//   enters     zigzag deltas vs the previous row's enter
//   exits      unsigned delta vs the SAME row's enter (a completed stay
//              always has exit >= enter)
//
// plus leading/trailing magic. Decoding is hostile-input safe: every
// read is bounds-checked against the buffer (truncation at any byte is
// an error, never a short segment), declared counts are validated
// against the actual byte lengths before any allocation (a corrupt row
// count cannot drive allocation beyond the file's own size), and the
// decoded rows must satisfy every ColdSegment invariant (completed,
// sorted, bounds exact) or the segment is rejected.

#ifndef LTAM_STORAGE_COLD_CODEC_H_
#define LTAM_STORAGE_COLD_CODEC_H_

#include <memory>
#include <string>

#include "engine/cold_segment.h"
#include "util/result.h"

namespace ltam {

/// Serializes a segment to its binary file image.
Result<std::string> EncodeColdSegment(const ColdSegment& segment);

/// Parses and fully validates a file image produced by EncodeColdSegment.
Result<ColdSegment> DecodeColdSegment(const std::string& bytes);

/// Writes `segment` to `path` (overwrites) through a FileWriter and
/// fsyncs it: the file is durable when this returns OK. The caller
/// still fsyncs the directory that names it.
Status SaveColdSegment(const ColdSegment& segment, const std::string& path);

/// Reads and decodes the segment at `path`.
Result<std::shared_ptr<const ColdSegment>> LoadColdSegment(
    const std::string& path);

}  // namespace ltam

#endif  // LTAM_STORAGE_COLD_CODEC_H_
