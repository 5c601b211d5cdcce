// Copyright 2026 The LTAM Authors.
// The record line format of every text file in a durable directory: the
// write-ahead log, the base and shard snapshots, and the MANIFEST.
//
// A record is one line: a tag, then tab-separated fields, then '\n'.
// Inside a string field '\t', '\n', '\r' and '\\' are escaped, so a raw
// tab always separates fields and a raw newline always ends the record.
// Integers are std::to_chars decimals and doubles are "%.17g", neither of
// which needs escaping. The format is written in one place, Line, and
// read in one place, LineReader; the WAL takes every enforcement event,
// so both work in place, with no per-field allocation for numbers.
//
// The reader is strict. An integer field is exactly -?[0-9]+ and must
// fit int64; an id must also fit uint32 (a negative subject never
// wraps to 4294967295); a word must come from its record's closed set;
// and a record must have exactly the fields its tag defines.

#ifndef LTAM_STORAGE_CODEC_H_
#define LTAM_STORAGE_CODEC_H_

#include <charconv>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <string>
#include <string_view>

#include "util/result.h"

namespace ltam {

/// Appends `field` to `*out` with '\t', '\n', '\r', and '\\' escaped, so
/// the field is line-safe.
void AppendEscapedField(std::string_view field, std::string* out);

/// Reverses AppendEscapedField; ParseError on dangling escapes.
Result<std::string> UnescapeField(std::string_view field);

/// Renders one record straight into a caller's buffer: the tag on
/// construction, one field per Str/Num/Real call, and the '\n' when the
/// Line goes out of scope.
class Line {
 public:
  Line(std::string* out, std::string_view tag) : out_(out) {
    out_->append(tag);
  }
  ~Line() { *out_ += '\n'; }
  Line(const Line&) = delete;
  Line& operator=(const Line&) = delete;

  Line& Str(std::string_view field) {
    *out_ += '\t';
    AppendEscapedField(field, out_);
    return *this;
  }
  template <typename Int>
  Line& Num(Int value) {
    char buf[24];
    const std::to_chars_result end =
        std::to_chars(buf, buf + sizeof(buf), value);
    *out_ += '\t';
    out_->append(buf, end.ptr);
    return *this;
  }
  Line& Real(double value);

 private:
  std::string* out_;
};

/// Reads one record line in place: the tag, then each field in order.
/// Every accessor consumes one field; a missing or malformed field is a
/// ParseError naming the record's tag and the field's position.
class LineReader {
 public:
  /// Reads `line` in place: it must outlive the reader.
  explicit LineReader(std::string_view line);

  std::string_view tag() const { return tag_; }
  /// Fields not consumed yet.
  size_t remaining() const;

  /// The next field, unescaped.
  Result<std::string> Str();
  /// The next field as -?[0-9]+ within int64.
  Result<int64_t> Int();
  /// The next field as an integer within uint32.
  Result<uint32_t> Id();
  /// The next field as a double (ParseDouble, after unescaping).
  Result<double> Real();
  /// The next field, which must be one of `words`; returns the match.
  Result<std::string_view> Word(std::initializer_list<std::string_view> words);
  /// Consumes the next field if it reads exactly `word`.
  bool TakeIf(std::string_view word);

  /// ParseError if fields remain: every record has exactly its fields.
  Status End() const;

 private:
  Result<std::string_view> Next();
  Status FieldError(std::string_view field, std::string_view what) const;

  std::string_view tag_;
  std::string_view rest_;  // The fields not consumed yet, tab-separated.
  bool has_field_ = false;  // rest_ holds one more field (maybe empty).
  size_t index_ = 0;        // Fields consumed so far.
};

/// Streams the records of a committed file (a snapshot, a movement
/// segment or a MANIFEST) to `fn` in order, skipping empty lines. Unlike
/// the WAL's ForEachWalLine it also delivers a final line that lacks its
/// newline. After `fn` returns OK the record must have no fields left.
/// Every error carries `what`, the file name and the line number.
Status ForEachRecord(const std::string& path, const char* what,
                     const std::function<Status(LineReader& record)>& fn);

}  // namespace ltam

#endif  // LTAM_STORAGE_CODEC_H_
