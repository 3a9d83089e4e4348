#include "io/read_file.h"

#include <cerrno>
#include <cstring>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

namespace dkc {
namespace {

Status ReadError(const std::string& verb, const std::string& what,
                 const std::string& path, int error) {
  return Status::IOError("cannot " + verb + " " + what + " '" + path +
                         "': " + std::strerror(error));
}

}  // namespace

StatusOr<std::string> ReadWholeFile(const std::string& path,
                                    const std::string& what) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    const int error = errno;
    if (error == ENOENT) {
      return Status::NotFound(what + " '" + path + "' does not exist");
    }
    return ReadError("open", what, path, error);
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int error = errno;
    ::close(fd);
    return ReadError("stat", what, path, error);
  }
  if (!S_ISREG(st.st_mode)) {
    ::close(fd);
    return ReadError("read", what, path, S_ISDIR(st.st_mode) ? EISDIR : EINVAL);
  }

  std::string data(static_cast<size_t>(st.st_size), '\0');
  size_t done = 0;
  while (done < data.size()) {
    const ssize_t n = ::read(fd, data.data() + done, data.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n < 0) {
      const int error = errno;
      ::close(fd);
      return ReadError("read", what, path, error);
    }
    if (n == 0) {  // the file shrank since fstat
      ::close(fd);
      return Status::IOError("short read of " + what + " '" + path + "': " +
                             std::to_string(done) + " of " +
                             std::to_string(data.size()) + " bytes");
    }
    done += static_cast<size_t>(n);
  }
  ::close(fd);
  return data;
}

}  // namespace dkc
