#ifndef ICEWAFL_IO_CSV_H_
#define ICEWAFL_IO_CSV_H_

#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {

/// \brief Options controlling CSV serialization and parsing.
struct CsvOptions {
  char delimiter = ',';
  /// Rendering of NULL on write; strings equal to it parse back as NULL.
  std::string null_repr = "";
  bool header = true;
};

/// \brief The one RFC-4180 record scanner behind ParseCsvText,
/// FromCsvString and ReadCsvFile.
///
/// Fields may be quoted with '"', quotes are escaped by doubling, and
/// quoted fields may contain delimiters and newlines. A record ends at
/// "\n", "\r\n" or a bare "\r". A record without '"' or '\r' is split in
/// place with memchr; any other goes through the RFC-4180 state machine,
/// which unescapes its fields into a scanner-owned buffer. A file is read
/// through one 64 KiB buffer: a record crossing its end moves to the front
/// before the next read, and only a longer record grows it.
class CsvScanner {
 public:
  /// \brief Scans `text` in place; it must outlive the scanner.
  CsvScanner(std::string_view text, char delimiter);

  /// \brief Scans the file at `path` in 64 KiB reads. Open and read
  /// failures (a missing file, a directory) are IOErrors naming the path.
  static Result<std::unique_ptr<CsvScanner>> OpenFile(const std::string& path,
                                                      char delimiter);

  ~CsvScanner();
  CsvScanner(const CsvScanner&) = delete;
  CsvScanner& operator=(const CsvScanner&) = delete;

  /// \brief Reads the next record into `*fields`, whose views stay valid
  /// until the next call. Returns false at the end of input.
  Result<bool> Next(std::vector<std::string_view>* fields);

 private:
  CsvScanner(int fd, std::string path, char delimiter);

  /// Moves the unread bytes to the front of chunk_ (growing it when they
  /// fill it) and reads behind them; false at the end of input or text.
  Result<bool> Refill();

  /// Makes buf_[pos_] readable, refilling when the buffer is used up.
  /// Returns false at the end of input.
  Result<bool> Fill() { return pos_ < buf_.size() ? true : Refill(); }

  /// The RFC-4180 state machine for a record with quotes or a '\r'.
  Result<bool> NextQuoted(std::vector<std::string_view>* fields);

  std::string_view buf_;  ///< the text, or the filled part of chunk_
  size_t pos_ = 0;
  char delimiter_;
  int fd_ = -1;       ///< owned; -1 when scanning text in memory
  std::string path_;  ///< names the file in error messages
  std::string chunk_;
  std::string unquoted_;            ///< NextQuoted's field bytes
  std::vector<size_t> field_ends_;  ///< NextQuoted's field ends in unquoted_
};

/// \brief Splits raw CSV text into records of fields (CsvScanner rules).
Result<std::vector<std::vector<std::string>>> ParseCsvText(
    const std::string& text, const CsvOptions& options = {});

/// \brief Quotes a single field if it contains delimiter/quote/newline.
std::string EscapeCsvField(const std::string& field, char delimiter);

/// \brief Serializes tuples as CSV text (types rendered per Value rules).
std::string ToCsvString(const SchemaPtr& schema, const TupleVector& tuples,
                        const CsvOptions& options = {});

/// \brief Parses CSV text into typed tuples according to `schema`.
///
/// With options.header, the first record must list exactly the schema's
/// attribute names (in order). Field values are converted to the attribute
/// type; conversion failures are errors, fields equal to
/// `options.null_repr` become NULL.
Result<TupleVector> FromCsvString(const SchemaPtr& schema,
                                  const std::string& text,
                                  const CsvOptions& options = {});

/// \brief File variants of the above.
Status WriteCsvFile(const SchemaPtr& schema, const TupleVector& tuples,
                    const std::string& path, const CsvOptions& options = {});
Result<TupleVector> ReadCsvFile(const SchemaPtr& schema,
                                const std::string& path,
                                const CsvOptions& options = {});

}  // namespace icewafl

#endif  // ICEWAFL_IO_CSV_H_
