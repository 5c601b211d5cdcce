// Copyright 2026 The LTAM Authors.

#include "storage/cold_codec.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <functional>
#include <tuple>

#include "storage/wal.h"
#include "util/result.h"

namespace ltam {

namespace {

constexpr char kMagic[8] = {'L', 'T', 'A', 'M', 'C', 'O', 'L', '1'};
constexpr char kFooter[4] = {'D', 'N', 'E', '1'};

void PutVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// Bounds-checked cursor over the encoded image. Every primitive read
/// fails cleanly at the end of the buffer, so truncation at any byte
/// surfaces as ParseError rather than a short segment.
class Reader {
 public:
  Reader(const std::string& bytes) : data_(bytes), pos_(0) {}

  size_t pos() const { return pos_; }
  size_t remaining() const { return data_.size() - pos_; }

  Status ExpectBytes(const char* expected, size_t n, const char* what) {
    if (remaining() < n) {
      return Status::ParseError(std::string("cold segment truncated in ") +
                                what);
    }
    if (data_.compare(pos_, n, expected, n) != 0) {
      return Status::ParseError(std::string("cold segment bad ") + what);
    }
    pos_ += n;
    return Status::OK();
  }

  Result<uint64_t> Varint(const char* what) {
    uint64_t v = 0;
    int shift = 0;
    while (true) {
      if (pos_ >= data_.size()) {
        return Status::ParseError(std::string("cold segment truncated in ") +
                                  what);
      }
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      if (shift == 63 && (byte & 0xfe) != 0) {
        return Status::ParseError(std::string("cold segment varint overflow "
                                              "in ") +
                                  what);
      }
      v |= static_cast<uint64_t>(byte & 0x7f) << shift;
      if ((byte & 0x80) == 0) return v;
      shift += 7;
    }
  }

 private:
  const std::string& data_;
  size_t pos_;
};

}  // namespace

Result<std::string> EncodeColdSegment(const ColdSegment& segment) {
  const size_t rows = segment.rows();
  if (segment.locations.size() != rows || segment.enters.size() != rows ||
      segment.exits.size() != rows) {
    return Status::InvalidArgument("cold segment columns are not parallel");
  }
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutVarint(&out, rows);
  PutVarint(&out, segment.sealed_events);
  PutVarint(&out, ZigZag(segment.min_enter));
  PutVarint(&out, ZigZag(segment.max_exit));

  auto emit_column = [&out](std::string&& column) {
    PutVarint(&out, column.size());
    out += column;
  };

  std::string col;
  // Subjects: non-negative deltas (rows are sorted by subject first).
  SubjectId prev_subject = 0;
  for (size_t i = 0; i < rows; ++i) {
    if (segment.subjects[i] == kInvalidSubject) {
      return Status::InvalidArgument("cold segment stay of invalid subject");
    }
    if (i > 0 && segment.subjects[i] < prev_subject) {
      return Status::InvalidArgument("cold segment rows not subject-sorted");
    }
    PutVarint(&col, segment.subjects[i] - (i == 0 ? 0 : prev_subject));
    prev_subject = segment.subjects[i];
  }
  emit_column(std::move(col));
  col.clear();
  for (size_t i = 0; i < rows; ++i) {
    if (segment.locations[i] == kInvalidLocation) {
      return Status::InvalidArgument("cold segment stay in invalid location");
    }
    PutVarint(&col, segment.locations[i]);
  }
  emit_column(std::move(col));
  col.clear();
  Chronon prev_enter = 0;
  for (size_t i = 0; i < rows; ++i) {
    PutVarint(&col, ZigZag(segment.enters[i] - (i == 0 ? 0 : prev_enter)));
    prev_enter = segment.enters[i];
  }
  emit_column(std::move(col));
  col.clear();
  for (size_t i = 0; i < rows; ++i) {
    if (segment.exits[i] < segment.enters[i] ||
        segment.exits[i] == kChrononMax) {
      return Status::InvalidArgument(
          "cold segment stay is open or ends before it starts");
    }
    PutVarint(&col, static_cast<uint64_t>(segment.exits[i]) -
                        static_cast<uint64_t>(segment.enters[i]));
  }
  emit_column(std::move(col));
  out.append(kFooter, sizeof(kFooter));
  return out;
}

Result<ColdSegment> DecodeColdSegment(const std::string& bytes) {
  Reader r(bytes);
  LTAM_RETURN_IF_ERROR(r.ExpectBytes(kMagic, sizeof(kMagic), "magic"));
  LTAM_ASSIGN_OR_RETURN(uint64_t rows, r.Varint("row count"));
  // Every row costs at least one byte in each of the four columns, so a
  // declared count beyond the remaining bytes is corrupt. Checked before
  // the first reserve: a hostile count can never drive allocation past
  // the file's own size.
  if (rows > r.remaining()) {
    return Status::ParseError("cold segment row count exceeds file size");
  }
  ColdSegment seg;
  LTAM_ASSIGN_OR_RETURN(seg.sealed_events, r.Varint("sealed events"));
  LTAM_ASSIGN_OR_RETURN(uint64_t zz_min, r.Varint("min enter"));
  LTAM_ASSIGN_OR_RETURN(uint64_t zz_max, r.Varint("max exit"));
  seg.min_enter = UnZigZag(zz_min);
  seg.max_exit = UnZigZag(zz_max);

  // Each encoded value is at least one byte, so a declared row count
  // exceeding a column's byte length (itself bounded by the file size)
  // is corrupt — checked per column BEFORE reserving, so a hostile
  // count can never drive allocation past the file's own size.
  auto read_column = [&r, rows](const char* what,
                                const std::function<Status(uint64_t)>& add)
      -> Status {
    LTAM_ASSIGN_OR_RETURN(uint64_t len, r.Varint(what));
    if (len > r.remaining()) {
      return Status::ParseError(std::string("cold segment truncated in ") +
                                what);
    }
    if (rows > len) {
      return Status::ParseError(
          std::string("cold segment row count exceeds ") + what + " bytes");
    }
    const size_t end = r.pos() + static_cast<size_t>(len);
    for (uint64_t i = 0; i < rows; ++i) {
      LTAM_ASSIGN_OR_RETURN(uint64_t v, r.Varint(what));
      LTAM_RETURN_IF_ERROR(add(v));
    }
    if (r.pos() != end) {
      return Status::ParseError(std::string("cold segment ") + what +
                                " column length mismatch");
    }
    return Status::OK();
  };

  seg.subjects.reserve(rows);
  uint64_t subject = 0;
  LTAM_RETURN_IF_ERROR(read_column("subjects", [&](uint64_t delta) {
    subject += delta;
    if (subject >= kInvalidSubject) {
      return Status::ParseError("cold segment subject id out of range");
    }
    seg.subjects.push_back(static_cast<SubjectId>(subject));
    return Status::OK();
  }));
  seg.locations.reserve(rows);
  LTAM_RETURN_IF_ERROR(read_column("locations", [&](uint64_t v) {
    if (v >= kInvalidLocation) {
      return Status::ParseError("cold segment location id out of range");
    }
    seg.locations.push_back(static_cast<LocationId>(v));
    return Status::OK();
  }));
  seg.enters.reserve(rows);
  Chronon enter = 0;
  LTAM_RETURN_IF_ERROR(read_column("enters", [&](uint64_t zz) {
    enter += UnZigZag(zz);
    seg.enters.push_back(enter);
    return Status::OK();
  }));
  seg.exits.reserve(rows);
  size_t row = 0;
  LTAM_RETURN_IF_ERROR(read_column("exits", [&](uint64_t span) {
    const Chronon start = seg.enters[row++];
    // Unsigned add, then reject any wrap past the signed range: span is
    // < 2^64, so a wrapped sum always lands below `start`.
    const Chronon exit = static_cast<Chronon>(
        static_cast<uint64_t>(start) + span);
    if (exit < start) {
      return Status::ParseError("cold segment stay length overflows");
    }
    if (exit == kChrononMax) {
      return Status::ParseError("cold segment holds an open stay");
    }
    seg.exits.push_back(exit);
    return Status::OK();
  }));
  LTAM_RETURN_IF_ERROR(r.ExpectBytes(kFooter, sizeof(kFooter), "footer"));
  if (r.remaining() != 0) {
    return Status::ParseError("cold segment has trailing bytes");
  }

  // Structural invariants: canonical (subject, enter, exit, location)
  // order — the subject column is nondecreasing by construction (deltas
  // are unsigned), the rest is validated here — and exact time bounds.
  Chronon min_enter = 0;
  Chronon max_exit = 0;
  for (size_t i = 0; i < seg.rows(); ++i) {
    if (i > 0 && seg.subjects[i] == seg.subjects[i - 1]) {
      const bool ordered =
          std::make_tuple(seg.enters[i - 1], seg.exits[i - 1],
                          seg.locations[i - 1]) <=
          std::make_tuple(seg.enters[i], seg.exits[i], seg.locations[i]);
      if (!ordered) {
        return Status::ParseError("cold segment rows out of order");
      }
    }
    if (i == 0) {
      min_enter = seg.enters[0];
      max_exit = seg.exits[0];
    } else {
      min_enter = std::min(min_enter, seg.enters[i]);
      max_exit = std::max(max_exit, seg.exits[i]);
    }
  }
  if (!seg.empty() &&
      (min_enter != seg.min_enter || max_exit != seg.max_exit)) {
    return Status::ParseError("cold segment time bounds mismatch");
  }
  if (seg.empty() && (seg.min_enter != 0 || seg.max_exit != 0)) {
    return Status::ParseError("cold segment time bounds mismatch");
  }
  return seg;
}

Status SaveColdSegment(const ColdSegment& segment, const std::string& path) {
  LTAM_ASSIGN_OR_RETURN(std::string bytes, EncodeColdSegment(segment));
  LTAM_ASSIGN_OR_RETURN(FileWriter out, FileWriter::Create(path));
  Status written = out.Write(bytes);
  if (written.ok()) written = out.Sync();
  return written.WithContext("cold segment '" + path + "'");
}

Result<std::shared_ptr<const ColdSegment>> LoadColdSegment(
    const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in.is_open()) {
    return Status::IOError("cannot open cold segment '" + path + "'");
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) {
    return Status::IOError("cold segment read failed: '" + path + "'");
  }
  Result<ColdSegment> decoded = DecodeColdSegment(bytes);
  if (!decoded.ok()) {
    return decoded.status().WithContext("cold segment '" + path + "'");
  }
  return std::make_shared<const ColdSegment>(std::move(*decoded));
}

}  // namespace ltam
