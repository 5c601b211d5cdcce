// Copyright 2026 The LTAM Authors.

#include "storage/codec.h"

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

Result<std::string> UnescapeField(const std::string& field) {
  std::string out;
  out.reserve(field.size());
  for (size_t i = 0; i < field.size(); ++i) {
    if (field[i] != '\\') {
      out += field[i];
      continue;
    }
    if (i + 1 >= field.size()) {
      return Status::ParseError("dangling escape in field: '" + field + "'");
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

namespace {

void AppendRecord(const Record& record, std::string* out) {
  AppendEscapedField(record.type, out);
  for (const std::string& field : record.fields) {
    *out += '\t';
    AppendEscapedField(field, out);
  }
}

}  // namespace

std::string EncodeRecord(const Record& record) {
  std::string out;
  AppendRecord(record, &out);
  return out;
}

void AppendRecordLine(const Record& record, std::string* out) {
  AppendRecord(record, out);
  *out += '\n';
}

Result<Record> DecodeRecord(const std::string& line) {
  std::vector<std::string> parts = Split(line, '\t');
  if (parts.empty() || parts[0].empty()) {
    return Status::ParseError("record line has no type tag");
  }
  Record out;
  LTAM_ASSIGN_OR_RETURN(out.type, UnescapeField(parts[0]));
  for (size_t i = 1; i < parts.size(); ++i) {
    LTAM_ASSIGN_OR_RETURN(std::string field, UnescapeField(parts[i]));
    out.fields.push_back(std::move(field));
  }
  return out;
}

}  // namespace ltam
