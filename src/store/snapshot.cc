#include "store/snapshot.h"

#include "io/atomic_file.h"
#include "io/fault.h"
#include "io/read_file.h"
#include "store/crc32.h"
#include "util/binio.h"

namespace dkc {
namespace {

constexpr char kMagic[8] = {'D', 'K', 'C', 'S', 'N', 'A', 'P', '1'};
constexpr uint32_t kFormatVersion = 1;

// Section ids. Meta first so readers can report k/seq even when a later
// section is damaged (they still refuse to load it).
constexpr uint32_t kSectionMeta = 1;
constexpr uint32_t kSectionGraph = 2;
constexpr uint32_t kSectionState = 3;

// Section framing written in place: BeginSection appends the id and a
// placeholder size + CRC, the caller serializes the payload straight onto
// the file buffer, and EndSection patches both fields over it.
constexpr size_t kSectionHeaderBytes = 16;

size_t BeginSection(std::string* file, uint32_t id) {
  const size_t header = file->size();
  PutU32(file, id);
  file->append(12, '\0');  // payload size (u64) + CRC-32 (u32)
  return header;
}

void EndSection(std::string* file, size_t header) {
  const size_t start = header + kSectionHeaderBytes;
  const std::string_view payload(file->data() + start, file->size() - start);
  std::string fields;
  PutU64(&fields, payload.size());
  PutU32(&fields, Crc32(payload));
  file->replace(header + 4, fields.size(), fields);
}

Status Corrupt(const std::string& what, const std::string& path) {
  return Status::Corruption("snapshot '" + path + "': " + what);
}

}  // namespace

Status WriteSnapshot(const SolutionState& state, uint64_t applied_seq,
                     const std::string& path) {
  constexpr size_t kMetaBytes = 28;
  std::string file;
  file.reserve(sizeof(kMagic) + 8 + 3 * kSectionHeaderBytes + kMetaBytes +
               state.SerializedBytes() + 4);
  file.append(kMagic, sizeof(kMagic));
  PutU32(&file, kFormatVersion);
  PutU32(&file, 3);  // section count

  size_t header = BeginSection(&file, kSectionMeta);
  PutU32(&file, static_cast<uint32_t>(state.k()));
  PutU64(&file, applied_seq);
  PutU64(&file, state.graph().num_nodes());
  PutU64(&file, state.graph().num_edges());
  EndSection(&file, header);

  header = BeginSection(&file, kSectionGraph);
  state.SerializeGraphTo(&file);
  EndSection(&file, header);

  header = BeginSection(&file, kSectionState);
  state.SerializeStateTo(&file);
  EndSection(&file, header);

  PutU32(&file, Crc32(file));  // whole-file CRC
  return AtomicWriteFile(path, file);
}

StatusOr<LoadedSnapshot> ReadSnapshot(const std::string& path) {
  DKC_RETURN_IF_ERROR(fio::Probe(FaultSite::kSnapshotReadOpen,
                                 "cannot open snapshot '" + path + "'"));
  StatusOr<std::string> read = ReadWholeFile(path, "snapshot");
  // A missing snapshot is an I/O failure here, not an empty store.
  if (!read.ok()) return Status::IOError(read.status().message());
  const std::string& file = read.value();

  if (file.size() < sizeof(kMagic) + 12 ||
      file.compare(0, sizeof(kMagic), kMagic, sizeof(kMagic)) != 0) {
    return Corrupt("bad magic", path);
  }
  // Whole-file CRC first: any flip anywhere (header, section table,
  // payloads) fails here before a single field is trusted.
  const std::string_view body(file.data(), file.size() - 4);
  ByteReader tail(std::string_view(file).substr(file.size() - 4));
  if (Crc32(body) != tail.U32()) {
    return Corrupt("whole-file checksum mismatch", path);
  }

  ByteReader reader(body);
  reader.Bytes(sizeof(kMagic));
  const uint32_t version = reader.U32();
  if (version != kFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version),
                   path);
  }
  const uint32_t sections = reader.U32();
  std::string_view meta_blob, graph_blob, state_blob;
  for (uint32_t i = 0; i < sections; ++i) {
    const uint32_t id = reader.U32();
    const uint64_t size = reader.U64();
    const uint32_t crc = reader.U32();
    const std::string_view payload = reader.Bytes(static_cast<size_t>(size));
    if (reader.failed()) return Corrupt("truncated section table", path);
    if (Crc32(payload) != crc) {
      return Corrupt("section " + std::to_string(id) + " checksum mismatch",
                     path);
    }
    switch (id) {
      case kSectionMeta: meta_blob = payload; break;
      case kSectionGraph: graph_blob = payload; break;
      case kSectionState: state_blob = payload; break;
      default: break;  // unknown sections tolerated (forward compat)
    }
  }
  if (!reader.AtEnd()) return Corrupt("trailing bytes", path);
  if (meta_blob.empty() || graph_blob.empty() || state_blob.empty()) {
    return Corrupt("missing required section", path);
  }

  LoadedSnapshot loaded;
  ByteReader meta(meta_blob);
  loaded.meta.k = static_cast<int>(meta.U32());
  loaded.meta.applied_seq = meta.U64();
  loaded.meta.num_nodes = meta.U64();
  loaded.meta.num_edges = meta.U64();
  if (!meta.AtEnd()) return Corrupt("malformed meta section", path);

  auto state = SolutionState::Deserialize(graph_blob, state_blob);
  if (!state.ok()) {
    return Corrupt(state.status().message(), path);
  }
  loaded.state = std::move(state).value();
  if (loaded.meta.k != loaded.state->k() ||
      loaded.meta.num_nodes != loaded.state->graph().num_nodes() ||
      loaded.meta.num_edges != loaded.state->graph().num_edges()) {
    return Corrupt("meta section disagrees with engine state", path);
  }
  return loaded;
}

}  // namespace dkc
