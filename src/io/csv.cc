#include "io/csv.h"

#include <fcntl.h>
#include <strings.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>

#include "util/strings.h"

namespace icewafl {

namespace {

/// Bytes per read(2) of a scanned file, and the bound on WriteCsvFile's
/// pending output.
constexpr size_t kChunkBytes = 64 * 1024;

void AppendCsvField(std::string_view field, char delimiter, std::string* out) {
  bool needs_quote = false;
  for (char c : field) {
    if (c == delimiter || c == '"' || c == '\n' || c == '\r') {
      needs_quote = true;
      break;
    }
  }
  if (!needs_quote) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

void AppendCsvHeader(const Schema& schema, char delimiter, std::string* out) {
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out->push_back(delimiter);
    AppendCsvField(schema.attribute(i).name, delimiter, out);
  }
  out->push_back('\n');
}

/// The one record writer behind ToCsvString and WriteCsvFile: appends a
/// tuple as one '\n'-terminated record, each value rendered straight into
/// the output and quoted only where needed.
class CsvRecordWriter {
 public:
  explicit CsvRecordWriter(const CsvOptions& options)
      : delimiter_(options.delimiter),
        // Bool, int64 and double text holds only these characters, never
        // a quote or a line end: it needs no quoting scan unless the
        // delimiter is one of them.
        scan_numbers_(std::string_view("+-.0123456789aefilnrstu")
                          .find(options.delimiter) != std::string_view::npos) {
    AppendCsvField(options.null_repr, delimiter_, &null_field_);
  }

  void Append(const Tuple& tuple, std::string* out) const {
    for (size_t i = 0; i < tuple.num_values(); ++i) {
      if (i > 0) out->push_back(delimiter_);
      const Value& v = tuple.value(i);
      if (v.is_string()) {
        AppendCsvField(v.AsString(), delimiter_, out);
      } else if (v.is_null()) {
        out->append(null_field_);
      } else if (scan_numbers_) {
        AppendCsvField(v.ToString(), delimiter_, out);
      } else {
        v.AppendTo(out);
      }
    }
    out->push_back('\n');
  }

 private:
  char delimiter_;
  bool scan_numbers_;
  std::string null_field_;  ///< null_repr, quoted if it needs to be
};

/// Converts one field to `type` and appends it to `*values`.
Status ConvertField(std::string_view field, ValueType type,
                    const std::string& null_repr, std::vector<Value>* values) {
  auto is = [field](std::string_view word) {  // ASCII case-insensitive
    return field.size() == word.size() &&
           ::strncasecmp(field.data(), word.data(), word.size()) == 0;
  };
  if (field == null_repr || type == ValueType::kNull) {
    values->emplace_back();
  } else if (type == ValueType::kBool) {
    if (!is("true") && !is("1") && !is("false") && !is("0")) {
      return Status::ParseError("invalid bool field: '" + std::string(field) +
                                "'");
    }
    values->emplace_back(is("true") || is("1"));
  } else if (type == ValueType::kInt64) {
    ICEWAFL_ASSIGN_OR_RETURN(int64_t v, ParseInt64(field));
    values->emplace_back(v);
  } else if (type == ValueType::kDouble) {
    ICEWAFL_ASSIGN_OR_RETURN(double v, ParseDouble(field));
    values->emplace_back(v);
  } else {
    values->emplace_back(std::string(field));
  }
  return Status::OK();
}

/// Reads the header record and checks it names the schema's attributes.
Status ReadHeader(CsvScanner* scanner, const Schema& schema,
                  std::vector<std::string_view>* fields) {
  ICEWAFL_ASSIGN_OR_RETURN(bool has_header, scanner->Next(fields));
  if (!has_header) return Status::ParseError("missing CSV header");
  const std::vector<std::string> got(fields->begin(), fields->end());
  if (got != schema.Names()) {
    return Status::ParseError("CSV header does not match schema: got '" +
                              Join(got, ",") + "'");
  }
  return Status::OK();
}

Result<TupleVector> ReadTuples(CsvScanner* scanner, const SchemaPtr& schema,
                               const CsvOptions& options) {
  std::vector<std::string_view> fields;
  if (options.header) {
    ICEWAFL_RETURN_NOT_OK(ReadHeader(scanner, *schema, &fields));
  }
  const size_t width = schema->num_attributes();
  TupleVector tuples;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(bool more, scanner->Next(&fields));
    if (!more) return tuples;
    // Records are numbered from 1, the header not counted.
    if (fields.size() != width) {
      return Status::ParseError(
          "CSV record " + std::to_string(tuples.size() + 1) + " has " +
          std::to_string(fields.size()) + " fields, schema expects " +
          std::to_string(width));
    }
    std::vector<Value> values;
    values.reserve(width);
    for (size_t i = 0; i < width; ++i) {
      ICEWAFL_RETURN_NOT_OK(ConvertField(fields[i], schema->attribute(i).type,
                                         options.null_repr, &values));
    }
    tuples.emplace_back(schema, std::move(values));
  }
}

}  // namespace

CsvScanner::CsvScanner(std::string_view text, char delimiter)
    : buf_(text), delimiter_(delimiter) {}

CsvScanner::CsvScanner(int fd, std::string path, char delimiter)
    : delimiter_(delimiter),
      fd_(fd),
      path_(std::move(path)),
      chunk_(kChunkBytes, '\0') {}

CsvScanner::~CsvScanner() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::unique_ptr<CsvScanner>> CsvScanner::OpenFile(
    const std::string& path, char delimiter) {
  int fd;
  do {
    fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  } while (fd < 0 && errno == EINTR);
  if (fd < 0) return Status::IOError("cannot open for reading: '" + path + "'");
  return std::unique_ptr<CsvScanner>(new CsvScanner(fd, path, delimiter));
}

Result<bool> CsvScanner::Refill() {
  if (fd_ < 0) return false;
  // In a file, buf_ is the front of chunk_.
  const size_t kept = buf_.size() - pos_;
  std::memmove(chunk_.data(), chunk_.data() + pos_, kept);
  if (kept == chunk_.size()) chunk_.resize(2 * chunk_.size());
  ssize_t n;
  do {
    n = ::read(fd_, chunk_.data() + kept, chunk_.size() - kept);
  } while (n < 0 && errno == EINTR);
  if (n < 0) {
    return Status::IOError("cannot read '" + path_ +
                           "': " + std::strerror(errno));
  }
  buf_ = std::string_view(chunk_.data(), kept + static_cast<size_t>(n));
  pos_ = 0;
  return n > 0;
}

Result<bool> CsvScanner::Next(std::vector<std::string_view>* fields) {
  fields->clear();
  // The record's end: the next '\n', reading on until one is buffered.
  size_t searched = 0;  // bytes after pos_ known to hold no '\n'
  size_t end;
  while ((end = buf_.find('\n', pos_ + searched)) == std::string_view::npos) {
    searched = buf_.size() - pos_;
    ICEWAFL_ASSIGN_OR_RETURN(bool more, Refill());
    if (!more) break;
  }
  const bool has_newline = end != std::string_view::npos;
  const std::string_view record =
      buf_.substr(pos_, has_newline ? end - pos_ : std::string_view::npos);
  if (record.empty() && !has_newline) return false;
  // Quotes and '\r' (or a delimiter that is one of them or '\n') need the
  // state machine; any other record splits at every delimiter.
  if (record.find('"') != std::string_view::npos ||
      record.find('\r') != std::string_view::npos || delimiter_ == '"' ||
      delimiter_ == '\n' || delimiter_ == '\r') {
    return NextQuoted(fields);
  }
  for (size_t from = 0;;) {
    const size_t to = std::min(record.find(delimiter_, from), record.size());
    fields->push_back(record.substr(from, to - from));
    if (to == record.size()) break;
    from = to + 1;
  }
  pos_ += record.size() + (has_newline ? 1 : 0);
  return true;
}

Result<bool> CsvScanner::NextQuoted(std::vector<std::string_view>* fields) {
  unquoted_.clear();
  field_ends_.clear();
  // Fields become views of unquoted_ only once it stops growing.
  auto emit = [&]() -> Result<bool> {
    field_ends_.push_back(unquoted_.size());
    for (size_t i = 0, start = 0; i < field_ends_.size(); ++i) {
      fields->emplace_back(unquoted_.data() + start, field_ends_[i] - start);
      start = field_ends_[i];
    }
    return true;
  };
  auto field_empty = [&] {
    return unquoted_.size() == (field_ends_.empty() ? 0 : field_ends_.back());
  };
  bool in_quotes = false;
  bool any_char = false;
  while (true) {
    if (pos_ == buf_.size()) {
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (!more) break;
    }
    any_char = true;
    if (in_quotes) {
      const size_t quote = buf_.find('"', pos_);
      if (quote == std::string_view::npos) {
        unquoted_.append(buf_.substr(pos_));
        pos_ = buf_.size();
        continue;
      }
      unquoted_.append(buf_.substr(pos_, quote - pos_));
      pos_ = quote + 1;
      // A doubled quote is a literal one; a single one closes the field.
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (more && buf_[pos_] == '"') {
        unquoted_.push_back('"');
        ++pos_;
      } else {
        in_quotes = false;
      }
      continue;
    }
    const char c = buf_[pos_];
    if (c == '"' && field_empty()) {
      in_quotes = true;
      ++pos_;
    } else if (c == delimiter_) {
      ++pos_;
      field_ends_.push_back(unquoted_.size());
    } else if (c == '\n') {
      ++pos_;
      return emit();
    } else if (c == '\r') {
      // Swallow the \n of \r\n; a bare \r also ends the record.
      ++pos_;
      ICEWAFL_ASSIGN_OR_RETURN(bool more, Fill());
      if (more && buf_[pos_] == '\n') ++pos_;
      return emit();
    } else {
      // A run of plain characters, up to the next delimiter or line end.
      size_t end = pos_ + 1;
      while (end < buf_.size() && buf_[end] != delimiter_ &&
             buf_[end] != '\n' && buf_[end] != '\r') {
        ++end;
      }
      unquoted_.append(buf_.substr(pos_, end - pos_));
      pos_ = end;
    }
  }
  if (in_quotes) {
    return Status::ParseError(
        path_.empty() ? "unterminated quoted CSV field"
                      : "unterminated quoted CSV field in '" + path_ + "'");
  }
  if (!any_char) return false;
  // Final record without a trailing newline.
  return emit();
}

Result<std::vector<std::vector<std::string>>> ParseCsvText(
    const std::string& text, const CsvOptions& options) {
  CsvScanner scanner(text, options.delimiter);
  std::vector<std::vector<std::string>> records;
  std::vector<std::string_view> fields;
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(bool more, scanner.Next(&fields));
    if (!more) return records;
    records.emplace_back(fields.begin(), fields.end());
  }
}

std::string EscapeCsvField(const std::string& field, char delimiter) {
  std::string out;
  AppendCsvField(field, delimiter, &out);
  return out;
}

std::string ToCsvString(const SchemaPtr& schema, const TupleVector& tuples,
                        const CsvOptions& options) {
  std::string out;
  if (options.header) AppendCsvHeader(*schema, options.delimiter, &out);
  const CsvRecordWriter writer(options);
  for (const Tuple& t : tuples) {
    writer.Append(t, &out);
    // Size the text once from the first record, with a quarter to spare.
    if (&t == &tuples.front()) out.reserve(out.size() * tuples.size() * 5 / 4);
  }
  return out;
}

Result<TupleVector> FromCsvString(const SchemaPtr& schema,
                                  const std::string& text,
                                  const CsvOptions& options) {
  CsvScanner scanner(text, options.delimiter);
  return ReadTuples(&scanner, schema, options);
}

Status WriteCsvFile(const SchemaPtr& schema, const TupleVector& tuples,
                    const std::string& path, const CsvOptions& options) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::IOError("cannot open for writing: '" + path + "'");
  std::string pending;
  if (options.header) AppendCsvHeader(*schema, options.delimiter, &pending);
  const CsvRecordWriter writer(options);
  for (const Tuple& t : tuples) {
    writer.Append(t, &pending);
    if (pending.size() >= kChunkBytes) {
      if (!out.write(pending.data(), pending.size())) break;
      pending.clear();
    }
  }
  out.write(pending.data(), pending.size());
  out.flush();
  if (!out) return Status::IOError("write failed: '" + path + "'");
  return Status::OK();
}

Result<TupleVector> ReadCsvFile(const SchemaPtr& schema,
                                const std::string& path,
                                const CsvOptions& options) {
  ICEWAFL_ASSIGN_OR_RETURN(std::unique_ptr<CsvScanner> scanner,
                           CsvScanner::OpenFile(path, options.delimiter));
  return ReadTuples(scanner.get(), schema, options);
}

}  // namespace icewafl
