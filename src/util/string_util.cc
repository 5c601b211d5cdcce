// Copyright 2026 The LTAM Authors.

#include "util/string_util.h"

#include <cctype>
#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>

namespace ltam {

std::vector<std::string> Split(std::string_view s, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(s.substr(start));
      break;
    }
    out.emplace_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::vector<std::string> SplitAndTrim(std::string_view s, char sep) {
  std::vector<std::string> out;
  for (const std::string& part : Split(s, sep)) {
    std::string t = Trim(part);
    if (!t.empty()) out.push_back(std::move(t));
  }
  return out;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += sep;
    out += parts[i];
  }
  return out;
}

std::string Trim(std::string_view s) {
  size_t b = 0;
  size_t e = s.size();
  while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
  while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
  return std::string(s.substr(b, e - b));
}

bool StartsWith(std::string_view s, std::string_view prefix) {
  return s.size() >= prefix.size() && s.substr(0, prefix.size()) == prefix;
}

bool EndsWith(std::string_view s, std::string_view suffix) {
  return s.size() >= suffix.size() &&
         s.substr(s.size() - suffix.size()) == suffix;
}

std::string ToLower(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  return out;
}

std::string ToUpper(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = static_cast<char>(std::toupper(static_cast<unsigned char>(c)));
  return out;
}

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

Result<int64_t> ParseInt64(std::string_view s) {
  std::string buf = Trim(s);
  if (buf.empty()) return Status::ParseError("empty integer literal");
  errno = 0;
  char* end = nullptr;
  long long v = std::strtoll(buf.c_str(), &end, 10);
  if (errno == ERANGE) {
    return Status::ParseError("integer out of range: '" + buf + "'");
  }
  if (end == nullptr || *end != '\0') {
    return Status::ParseError("not an integer: '" + buf + "'");
  }
  return static_cast<int64_t>(v);
}

Result<int64_t> ParseInt64InRange(std::string_view s, int64_t lo,
                                  int64_t hi) {
  Result<int64_t> parsed = ParseInt64(s);
  if (!parsed.ok() || *parsed < lo || *parsed > hi) {
    return Status::InvalidArgument(StrFormat(
        "'%s' is not a number in %lld..%lld", std::string(s).c_str(),
        static_cast<long long>(lo), static_cast<long long>(hi)));
  }
  return *parsed;
}

Result<double> ParseDouble(std::string_view s) {
  std::string buf = Trim(s);
  if (buf.empty()) return Status::ParseError("empty float literal");
  errno = 0;
  char* end = nullptr;
  double v = std::strtod(buf.c_str(), &end);
  if (errno == ERANGE) {
    return Status::ParseError("float out of range: '" + buf + "'");
  }
  if (end == nullptr || *end != '\0') {
    return Status::ParseError("not a float: '" + buf + "'");
  }
  return v;
}

std::string StrFormat(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list args_copy;
  va_copy(args_copy, args);
  int n = std::vsnprintf(nullptr, 0, fmt, args);
  va_end(args);
  std::string out;
  if (n > 0) {
    out.resize(static_cast<size_t>(n));
    std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
  }
  va_end(args_copy);
  return out;
}

}  // namespace ltam
