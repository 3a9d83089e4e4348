// Whole-file reads for the durable store's recovery path: one open, one
// fstat, and a read loop straight into a buffer sized up front, so a
// multi-megabyte snapshot or WAL crosses user space exactly once (no
// stream buffer, no stringstream, no copy out of it).

#ifndef DKC_IO_READ_FILE_H_
#define DKC_IO_READ_FILE_H_

#include <string>

#include "util/status.h"

namespace dkc {

/// The complete contents of the regular file at `path`. `what` names the
/// file in error messages ("snapshot", "WAL"). NotFound if it does not
/// exist; IOError if it cannot be opened, is a directory or other
/// non-regular file, a read fails, or the read comes up short of the size
/// fstat reported.
StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const std::string& what);

}  // namespace dkc

#endif  // DKC_IO_READ_FILE_H_
