#include "store/wal.h"

#include <cerrno>
#include <cstring>

#include <unistd.h>

#include "io/fault.h"
#include "io/read_file.h"
#include "store/crc32.h"
#include "util/binio.h"

namespace dkc {
namespace {

void AppendEncoded(std::string* out, uint8_t op, const WalRecord& rec) {
  const size_t start = out->size();
  PutU8(out, op);
  PutU32(out, rec.u);
  PutU32(out, rec.v);
  PutU64(out, rec.seq);
  PutU32(out, Crc32(std::string_view(out->data() + start,
                                     kWalRecordBytes - 4)));
}

}  // namespace

std::string EncodeWalGroup(std::span<const WalRecord> recs) {
  std::string out;
  out.reserve(recs.size() * kWalRecordBytes);
  for (size_t i = 0; i < recs.size(); ++i) {
    const uint8_t continues = i + 1 < recs.size() ? kWalOpContinues : 0;
    const uint8_t insert = recs[i].is_insert ? kWalOpInsert : 0;
    AppendEncoded(&out, static_cast<uint8_t>(insert | continues), recs[i]);
  }
  return out;
}

StatusOr<WalWriter> WalWriter::Open(const std::string& path) {
  std::FILE* file = fio::FOpen(FaultSite::kWalOpen, path.c_str(), "ab");
  if (file == nullptr) {
    return Status::IOError("cannot open WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return WalWriter(file, path);
}

Status WalWriter::Poison(Status status) {
  if (poison_.ok()) poison_ = status;
  return status;
}

Status WalWriter::AppendGroup(std::span<const WalRecord> recs, bool sync) {
  if (recs.empty()) return Status::OK();
  if (!poison_.ok()) return poison_;
  // One encode, one write: the closing record rides in the same buffer as
  // the rest of the epoch, so the kernel sees it as a single append.
  const std::string encoded = EncodeWalGroup(recs);
  if (fio::FWrite(FaultSite::kWalAppend, encoded.data(), 1, encoded.size(),
                  file_.get()) != encoded.size()) {
    // A short buffered append leaves a torn epoch in the stdio buffer; no
    // later append may land after it (fsyncgate discipline — see header).
    return Poison(Status::IOError("WAL append to '" + path_ + "' failed: " +
                                  std::strerror(errno)));
  }
  if (sync) return Sync();
  return Status::OK();
}

Status WalWriter::Sync() {
  if (!poison_.ok()) return poison_;
  // Poison on EITHER failure: after a failed fsync the kernel may discard
  // the dirty pages and a retried fsync can report success without the
  // data ever reaching disk (the fsyncgate failure mode). The writer is
  // done; only a reopen re-establishes a trustworthy durable boundary.
  if (fio::FFlush(FaultSite::kWalFlush, file_.get()) != 0) {
    return Poison(Status::IOError("WAL flush of '" + path_ + "' failed: " +
                                  std::strerror(errno)));
  }
  if (fio::Fsync(FaultSite::kWalFsync, fileno(file_.get())) != 0) {
    return Poison(Status::IOError("WAL fsync of '" + path_ + "' failed: " +
                                  std::strerror(errno)));
  }
  return Status::OK();
}

StatusOr<WalReadResult> ReadWal(const std::string& path) {
  WalReadResult result;
  DKC_RETURN_IF_ERROR(
      fio::Probe(FaultSite::kWalReadOpen, "cannot open WAL '" + path + "'"));
  StatusOr<std::string> read = ReadWholeFile(path, "WAL");
  if (read.status().code() == Status::Code::kNotFound) {
    return result;  // no WAL yet — empty log
  }
  if (!read.ok()) return read.status();
  const std::string& data = read.value();

  size_t pos = 0;
  bool have_prev = false;
  uint64_t prev_seq = 0;
  // Index into result.records where the open epoch starts. valid_bytes
  // only advances past a closing record, never mid-epoch.
  size_t epoch_first = 0;
  while (pos < data.size()) {
    if (data.size() - pos < kWalRecordBytes) {
      // Torn append: the crash cut the final write short.
      result.torn_tail = true;
      break;
    }
    const std::string_view raw(data.data() + pos, kWalRecordBytes);
    ByteReader reader(raw);
    const uint8_t op = reader.U8();
    WalRecord rec;
    rec.u = reader.U32();
    rec.v = reader.U32();
    rec.seq = reader.U64();
    const uint32_t stored_crc = reader.U32();
    if (Crc32(raw.substr(0, kWalRecordBytes - 4)) != stored_crc) {
      // A complete record never tears (appends are single writes), so a
      // bad CRC here is corruption, not a crash artifact.
      return Status::Corruption(
          "WAL '" + path + "': checksum mismatch in record at byte " +
          std::to_string(pos));
    }
    switch (op) {
      case 0:
      case kWalOpInsert:
      case kWalOpContinues:
      case kWalOpContinues | kWalOpInsert: {
        // A record missing from the middle of an epoch, or an epoch
        // whose closing record is missing, breaks the chain here.
        if (have_prev && rec.seq != prev_seq + 1) {
          return Status::Corruption("WAL '" + path +
                                    "': sequence gap after seq " +
                                    std::to_string(prev_seq));
        }
        have_prev = true;
        prev_seq = rec.seq;
        rec.is_insert = (op & kWalOpInsert) != 0;
        result.records.push_back(rec);
        if ((op & kWalOpContinues) == 0) {
          result.segments.push_back(
              {epoch_first, result.records.size() - epoch_first});
          epoch_first = result.records.size();
          result.valid_bytes = pos + kWalRecordBytes;
        }
        break;
      }
      default:
        return Status::Corruption("WAL '" + path +
                                  "': unknown record type " +
                                  std::to_string(op) + " at byte " +
                                  std::to_string(pos));
    }
    pos += kWalRecordBytes;
  }
  if (epoch_first != result.records.size()) {
    // Crash inside the epoch's write: some of its records landed but the
    // closing one did not. Drop them — the epoch was never durable — and
    // recover to the last epoch boundary.
    result.records.resize(epoch_first);
    result.torn_group = true;
  }
  return result;
}

Status TruncateWal(const std::string& path, uint64_t valid_bytes) {
  if (fio::Truncate(FaultSite::kWalTruncate, path.c_str(),
                    static_cast<off_t>(valid_bytes)) != 0) {
    return Status::IOError("cannot truncate WAL '" + path +
                           "': " + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace dkc
