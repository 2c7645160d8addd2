#ifndef PARPARAW_IO_FILE_H_
#define PARPARAW_IO_FILE_H_

#include <cstdio>
#include <string>

#include "util/result.h"

namespace parparaw {

/// Reads an entire file into memory.
Result<std::string> ReadFileToString(const std::string& path);

/// Writes (truncating) `contents` to `path`.
Status WriteStringToFile(const std::string& path, std::string_view contents);

/// The first bytes of a file, as sampled for dialect, type and plan
/// resolution before the file is streamed.
struct FileHead {
  /// The first min(file_size, max_bytes) bytes.
  std::string bytes;
  int64_t file_size = 0;
  /// True when the file continues past `bytes`.
  bool truncated = false;
};

/// Reads the head of `path` without keeping the file open.
Result<FileHead> ReadFileHead(const std::string& path, size_t max_bytes);

/// \brief Sequential chunk reader feeding the pipelined executor from disk.
///
/// Reads fixed-size partitions; the caller prepends its own carry-over
/// (this reader exists so inputs larger than memory can be streamed).
class FileChunkReader {
 public:
  FileChunkReader() = default;
  ~FileChunkReader();

  FileChunkReader(const FileChunkReader&) = delete;
  FileChunkReader& operator=(const FileChunkReader&) = delete;

  /// Opens `path` for reading.
  Status Open(const std::string& path);

  /// Reads up to `max_bytes` into `out` (cleared first). Sets `*eof` when
  /// the file is exhausted; a final partial read still returns data with
  /// `*eof == true` only when nothing further remains.
  Status ReadNext(size_t max_bytes, std::string* out, bool* eof);

  /// Total bytes of the open file.
  int64_t file_size() const { return file_size_; }

 private:
  std::FILE* file_ = nullptr;
  int64_t file_size_ = 0;
};

}  // namespace parparaw

#endif  // PARPARAW_IO_FILE_H_
