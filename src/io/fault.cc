#include "io/fault.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <mutex>
#include <new>

namespace dkc {
namespace {

struct SiteNameEntry {
  FaultSite site;
  const char* name;
};

constexpr SiteNameEntry kSiteNames[] = {
    {FaultSite::kAnySite, "any"},
    {FaultSite::kAtomicOpen, "atomic_open"},
    {FaultSite::kAtomicWrite, "atomic_write"},
    {FaultSite::kAtomicFsync, "atomic_fsync"},
    {FaultSite::kAtomicClose, "atomic_close"},
    {FaultSite::kAtomicRename, "atomic_rename"},
    {FaultSite::kAtomicUnlink, "atomic_unlink"},
    {FaultSite::kDirOpen, "dir_open"},
    {FaultSite::kDirFsync, "dir_fsync"},
    {FaultSite::kWalOpen, "wal_open"},
    {FaultSite::kWalAppend, "wal_append"},
    {FaultSite::kWalFlush, "wal_flush"},
    {FaultSite::kWalFsync, "wal_fsync"},
    {FaultSite::kWalReadOpen, "wal_read_open"},
    {FaultSite::kWalTruncate, "wal_truncate"},
    {FaultSite::kSnapshotReadOpen, "snapshot_read_open"},
    {FaultSite::kStoreLink, "store_link"},
    {FaultSite::kStoreUnlink, "store_unlink"},
};

// All injector state lives behind one mutex: the seam is on syscall paths,
// where a mutex round-trip is noise next to the kernel call it guards.
struct InjectorState {
  std::mutex mu;
  bool armed = false;
  std::vector<FaultRule> rules;
  std::vector<uint64_t> rule_hits;  // matching-hit count per rule
  uint64_t total_hits = 0;
  std::vector<FaultHit> trace;
};

// Built in static storage and never destroyed, so no destructor races a
// late wrapper call at exit and the seam makes no heap allocation: a small
// block made at the first store syscall shifts where glibc puts the
// store's later multi-MB buffers (+12 MB peak RSS on bench_e2e
// batch1-serial when this was `new InjectorState`).
InjectorState& State() {
  alignas(InjectorState) static unsigned char storage[sizeof(InjectorState)];
  static InjectorState* state = new (storage) InjectorState();
  return *state;
}

}  // namespace

const char* FaultSiteName(FaultSite site) {
  for (const SiteNameEntry& entry : kSiteNames) {
    if (entry.site == site) return entry.name;
  }
  return "?";
}

bool FaultSiteFromName(const std::string& name, FaultSite* site) {
  for (const SiteNameEntry& entry : kSiteNames) {
    if (name == entry.name) {
      *site = entry.site;
      return true;
    }
  }
  return false;
}

FaultInjector& FaultInjector::Instance() {
  static FaultInjector injector;  // empty, trivially destructible
  return injector;
}

void FaultInjector::Arm(std::vector<FaultRule> rules) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed = true;
  s.rules = std::move(rules);
  s.rule_hits.assign(s.rules.size(), 0);
  s.total_hits = 0;
  s.trace.clear();
}

void FaultInjector::Disarm() {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  s.armed = false;
}

bool FaultInjector::armed() const {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.armed;
}

std::vector<FaultHit> FaultInjector::trace() const {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.trace;
}

uint64_t FaultInjector::hits() const {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  return s.total_hits;
}

bool FaultInjector::ShouldFail(FaultSite site, FaultRule* rule) {
  InjectorState& s = State();
  std::lock_guard<std::mutex> lock(s.mu);
  if (!s.armed) return false;
  ++s.total_hits;
  s.trace.push_back({site, s.total_hits});
  bool fail = false;
  // Every matching rule's counter advances on every matching hit — rules
  // count hits independently of whether an earlier rule already fired, so
  // a schedule's Nth-hit arithmetic never shifts when rules are combined.
  for (size_t i = 0; i < s.rules.size(); ++i) {
    const FaultRule& r = s.rules[i];
    if (r.site != FaultSite::kAnySite && r.site != site) continue;
    const uint64_t count = ++s.rule_hits[i];
    if (count < r.hit) continue;
    if (r.fail_count != 0 && count >= r.hit + r.fail_count) continue;
    if (!fail) {
      *rule = r;
      fail = true;
    }
  }
  return fail;
}

namespace fio {
namespace {

bool Fails(FaultSite site, FaultRule* rule) {
  return FaultInjector::Instance().ShouldFail(site, rule);
}

}  // namespace

int Open(FaultSite site, const char* path, int flags, mode_t mode) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::open(path, flags, mode);
}

int Open(FaultSite site, const char* path, int flags) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::open(path, flags);
}

ssize_t Write(FaultSite site, int fd, const void* buf, size_t count) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    if (rule.short_bytes != SIZE_MAX) {
      // Genuine torn write: part of the buffer really lands.
      return ::write(fd, buf, std::min(rule.short_bytes, count));
    }
    errno = rule.error;
    return -1;
  }
  return ::write(fd, buf, count);
}

int Fsync(FaultSite site, int fd) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::fsync(fd);
}

int Close(FaultSite site, int fd) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    // The descriptor is genuinely closed (as the kernel may do even when
    // close reports failure); only the return value lies.
    ::close(fd);
    errno = rule.error;
    return -1;
  }
  return ::close(fd);
}

int Rename(FaultSite site, const char* from, const char* to) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::rename(from, to);
}

int Unlink(FaultSite site, const char* path) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::unlink(path);
}

int Link(FaultSite site, const char* from, const char* to) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::link(from, to);
}

int Truncate(FaultSite site, const char* path, off_t length) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return -1;
  }
  return ::truncate(path, length);
}

std::FILE* FOpen(FaultSite site, const char* path, const char* mode) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return nullptr;
  }
  return std::fopen(path, mode);
}

size_t FWrite(FaultSite site, const void* buf, size_t size, size_t n,
              std::FILE* stream) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    if (rule.short_bytes != SIZE_MAX && size > 0) {
      // Short buffered write: the truncated prefix really enters the stdio
      // buffer, so a later flush/close writes genuinely torn bytes.
      const size_t want = size * n;
      const size_t got =
          std::fwrite(buf, 1, std::min(rule.short_bytes, want), stream);
      return got / size;
    }
    errno = rule.error;
    return 0;
  }
  return std::fwrite(buf, size, n, stream);
}

int FFlush(FaultSite site, std::FILE* stream) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    errno = rule.error;
    return EOF;
  }
  return std::fflush(stream);
}

Status Probe(FaultSite site, const std::string& what) {
  FaultRule rule;
  if (Fails(site, &rule)) {
    return Status::IOError(what + ": " + std::strerror(rule.error) +
                           " (injected)");
  }
  return Status::OK();
}

}  // namespace fio

}  // namespace dkc
