#include "store/snapshot.h"

#include <vector>

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
// the file buffer, and EndSection patches both fields over it. `file_crc`
// is the CRC of file[0, header) on entry and of the whole buffer on exit:
// the payload's CRC is folded in with Crc32Combine, so each byte is
// checksummed once.
constexpr size_t kSectionHeaderBytes = 16;

size_t BeginSection(std::string* file, uint32_t id) {
  const size_t header = file->size();
  PutU32(file, id);
  file->append(12, '\0');  // payload size (u64) + CRC-32 (u32)
  return header;
}

void EndSection(std::string* file, size_t header, uint32_t* file_crc) {
  const size_t start = header + kSectionHeaderBytes;
  const std::string_view payload(file->data() + start, file->size() - start);
  const uint32_t payload_crc = Crc32(payload);
  std::string fields;
  PutU64(&fields, payload.size());
  PutU32(&fields, payload_crc);
  file->replace(header + 4, fields.size(), fields);
  *file_crc = Crc32Combine(
      Crc32(std::string_view(file->data() + header, kSectionHeaderBytes),
            *file_crc),
      payload_crc, payload.size());
}

// One parsed section-table entry: the stored CRC and the payload's.
struct Section {
  uint32_t id = 0;
  uint32_t stored_crc = 0;
  uint32_t crc = 0;
  std::string_view payload;
};

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
  uint32_t file_crc = Crc32(file);

  size_t header = BeginSection(&file, kSectionMeta);
  PutU32(&file, static_cast<uint32_t>(state.k()));
  PutU64(&file, applied_seq);
  PutU64(&file, state.graph().num_nodes());
  PutU64(&file, state.graph().num_edges());
  EndSection(&file, header, &file_crc);

  header = BeginSection(&file, kSectionGraph);
  state.SerializeGraphTo(&file);
  EndSection(&file, header, &file_crc);

  header = BeginSection(&file, kSectionState);
  state.SerializeStateTo(&file);
  EndSection(&file, header, &file_crc);

  PutU32(&file, file_crc);  // whole-file CRC
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
  // One pass over the bytes: walk the section table, checksum each
  // payload once, and fold the payloads' CRCs and the framing bytes into
  // the whole-file CRC. The table is not trusted yet — the walk only
  // stops where it no longer parses, and whatever it did not reach is
  // checksummed plainly — so the whole-file CRC is decided first, over
  // every byte, before a single field is used.
  const std::string_view body(file.data(), file.size() - 4);
  constexpr size_t kPrefixBytes = sizeof(kMagic) + 8;  // + version + count
  ByteReader reader(body);
  reader.Bytes(sizeof(kMagic));
  const uint32_t version = reader.U32();
  const uint32_t num_sections = reader.U32();
  uint32_t file_crc = Crc32(body.substr(0, kPrefixBytes));
  size_t parsed = kPrefixBytes;  // body[0, parsed) is folded into file_crc
  std::vector<Section> sections;
  for (uint32_t i = 0; i < num_sections; ++i) {
    Section section;
    section.id = reader.U32();
    const uint64_t size = reader.U64();
    section.stored_crc = reader.U32();
    section.payload = reader.Bytes(static_cast<size_t>(size));
    if (reader.failed()) break;
    section.crc = Crc32(section.payload);
    file_crc = Crc32Combine(
        Crc32(body.substr(parsed, kSectionHeaderBytes), file_crc),
        section.crc, section.payload.size());
    parsed += kSectionHeaderBytes + section.payload.size();
    sections.push_back(section);
  }
  file_crc = Crc32(body.substr(parsed), file_crc);
  ByteReader tail(std::string_view(file).substr(file.size() - 4));
  if (file_crc != tail.U32()) {
    return Corrupt("whole-file checksum mismatch", path);
  }

  if (version != kFormatVersion) {
    return Corrupt("unsupported format version " + std::to_string(version),
                   path);
  }
  std::string_view meta_blob, graph_blob, state_blob;
  for (const Section& section : sections) {
    if (section.crc != section.stored_crc) {
      return Corrupt(
          "section " + std::to_string(section.id) + " checksum mismatch",
          path);
    }
    switch (section.id) {
      case kSectionMeta: meta_blob = section.payload; break;
      case kSectionGraph: graph_blob = section.payload; break;
      case kSectionState: state_blob = section.payload; break;
      default: break;  // unknown sections tolerated (forward compat)
    }
  }
  if (reader.failed()) return Corrupt("truncated section table", path);
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
