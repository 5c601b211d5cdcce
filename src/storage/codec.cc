// Copyright 2026 The LTAM Authors.

#include "storage/codec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>

#include "util/string_util.h"

namespace ltam {

void AppendEscapedField(std::string_view field, std::string* out) {
  for (char c : field) {
    switch (c) {
      case '\\':
        *out += "\\\\";
        break;
      case '\t':
        *out += "\\t";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      default:
        *out += c;
    }
  }
}

Result<std::string> UnescapeField(std::string_view field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (i + 1 >= field.size()) {
      return Status::ParseError("dangling escape in field: '" +
                                std::string(field) + "'");
    }
    ++i;
    switch (field[i]) {
      case '\\':
        out += '\\';
        break;
      case 't':
        out += '\t';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::ParseError(std::string("unknown escape '\\") +
                                  field[i] + "'");
    }
  }
  return out;
}

Line& Line::Real(double value) {
  char buf[32];
  const int n = std::snprintf(buf, sizeof(buf), "%.17g", value);
  *out_ += '\t';
  out_->append(buf, static_cast<size_t>(n));
  return *this;
}

LineReader::LineReader(std::string_view line) {
  const size_t tab = line.find('\t');
  tag_ = line.substr(0, tab);
  if (tab != std::string_view::npos) {
    rest_ = line.substr(tab + 1);
    has_field_ = true;
  }
}

size_t LineReader::remaining() const {
  if (!has_field_) return 0;
  return static_cast<size_t>(std::count(rest_.begin(), rest_.end(), '\t')) +
         1;
}

Result<std::string_view> LineReader::Next() {
  if (!has_field_) {
    return Status::ParseError("record '" + std::string(tag_) +
                              "' is missing field " +
                              std::to_string(index_ + 1));
  }
  ++index_;
  const size_t tab = rest_.find('\t');
  const std::string_view field = rest_.substr(0, tab);
  if (tab == std::string_view::npos) {
    has_field_ = false;
    rest_ = std::string_view();
  } else {
    rest_.remove_prefix(tab + 1);
  }
  return field;
}

Status LineReader::FieldError(std::string_view field,
                              std::string_view what) const {
  return Status::ParseError("record '" + std::string(tag_) + "' field " +
                            std::to_string(index_) + ": " +
                            std::string(what) + " '" + std::string(field) +
                            "'");
}

Result<std::string> LineReader::Str() {
  LTAM_ASSIGN_OR_RETURN(std::string_view field, Next());
  Result<std::string> text = UnescapeField(field);
  if (!text.ok()) return FieldError(field, "bad escape in");
  return text;
}

Result<int64_t> LineReader::Int() {
  LTAM_ASSIGN_OR_RETURN(std::string_view field, Next());
  int64_t value = 0;
  const char* end = field.data() + field.size();
  const std::from_chars_result parsed =
      std::from_chars(field.data(), end, value);
  if (parsed.ec == std::errc::result_out_of_range) {
    return FieldError(field, "integer out of range:");
  }
  if (parsed.ec != std::errc() || parsed.ptr != end) {
    return FieldError(field, "not an integer:");
  }
  return value;
}

Result<uint32_t> LineReader::Id() {
  LTAM_ASSIGN_OR_RETURN(int64_t value, Int());
  if (value < 0 || value > std::numeric_limits<uint32_t>::max()) {
    return FieldError(std::to_string(value), "id out of range:");
  }
  return static_cast<uint32_t>(value);
}

Result<double> LineReader::Real() {
  LTAM_ASSIGN_OR_RETURN(std::string text, Str());
  Result<double> value = ParseDouble(text);
  if (!value.ok()) return FieldError(text, "not a number:");
  return value;
}

Result<std::string_view> LineReader::Word(
    std::initializer_list<std::string_view> words) {
  LTAM_ASSIGN_OR_RETURN(std::string_view field, Next());
  for (std::string_view word : words) {
    if (field == word) return word;
  }
  std::string expected;
  for (std::string_view word : words) {
    if (!expected.empty()) expected += '|';
    expected += word;
  }
  return FieldError(field, "expected " + expected + ", read");
}

bool LineReader::TakeIf(std::string_view word) {
  if (!has_field_ || rest_.substr(0, rest_.find('\t')) != word) return false;
  (void)Next();
  return true;
}

Status LineReader::End() const {
  if (!has_field_) return Status::OK();
  return Status::ParseError("record '" + std::string(tag_) + "' has " +
                            std::to_string(index_ + remaining()) +
                            " fields, expected " + std::to_string(index_));
}

Status ForEachRecord(const std::string& path, const char* what,
                     const std::function<Status(LineReader& record)>& fn) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError(std::string("cannot open ") + what + " '" + path +
                           "'");
  }
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    LineReader record(line);
    Status read = fn(record);
    if (read.ok()) read = record.End();
    if (!read.ok()) {
      return read.WithContext(std::string(what) + " '" + path + "' line " +
                              std::to_string(line_no));
    }
  }
  if (in.bad()) {
    return Status::IOError(std::string("cannot read ") + what + " '" + path +
                           "'");
  }
  return Status::OK();
}

}  // namespace ltam
