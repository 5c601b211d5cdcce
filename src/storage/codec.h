// Copyright 2026 The LTAM Authors.
// Line-oriented record codec for persistence.
//
// Every persisted record is one line: a record type tag followed by
// tab-separated fields, with tabs/newlines/backslashes escaped inside
// fields. Human-inspectable, diff-friendly, and trivially append-able —
// the right trade-off for an authorization store whose write rate is
// administrator-scale.

#ifndef LTAM_STORAGE_CODEC_H_
#define LTAM_STORAGE_CODEC_H_

#include <string>
#include <string_view>
#include <vector>

#include "util/result.h"

namespace ltam {

/// Appends `field` to `*out` with '\t', '\n', '\r', and '\\' escaped, so
/// the field is line-safe.
void AppendEscapedField(std::string_view field, std::string* out);

/// Reverses AppendEscapedField; ParseError on dangling escapes.
Result<std::string> UnescapeField(const std::string& field);

/// A decoded record: type tag + fields.
struct Record {
  std::string type;
  std::vector<std::string> fields;
};

/// Encodes a record to one line (no trailing newline).
std::string EncodeRecord(const Record& record);

/// Appends EncodeRecord(record) and its '\n' to `*out`: the writers
/// that batch many lines into one buffer encode straight into it.
void AppendRecordLine(const Record& record, std::string* out);

/// Decodes one line.
Result<Record> DecodeRecord(const std::string& line);

}  // namespace ltam

#endif  // LTAM_STORAGE_CODEC_H_
