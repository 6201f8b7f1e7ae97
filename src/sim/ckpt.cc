/**
 * @file
 * assassyn.ckpt.v1 serialization (see ckpt.h for the contract).
 *
 * Binary layout, all integers little-endian:
 *
 *     magic   8B   "ASSNCKP1"
 *     u32          format version (1)
 *     str          design name        (u32 length + bytes)
 *     str          engine ("event" | "netlist")
 *     u64          cycle
 *     u32          section count
 *     per section:
 *       str        section name
 *       u64        payload length
 *       u32        payload CRC-32
 *       bytes      payload
 *     u32          CRC-32 of every preceding byte
 *
 * Section payloads are defined by the producers (simulator.cc,
 * netlist_sim.cc, trace.cc, grader.cc); this file only frames them.
 * The whole-file CRC means any single bit flip anywhere in the blob is
 * detected even when it happens to keep the structure parseable.
 */
#include "sim/ckpt.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

#include "support/json.h"
#include "support/jsonv.h"
#include "support/logging.h"

namespace assassyn {
namespace sim {

namespace {

constexpr char kMagic[8] = {'A', 'S', 'S', 'N', 'C', 'K', 'P', '1'};
constexpr const char *kSchema = "assassyn.ckpt.v1";

// Caps on attacker-controlled (i.e. possibly corrupted) counts, so a
// flipped length byte can never drive a huge allocation before the
// CRC check gets a chance to reject the file.
constexpr size_t kMaxNameLen = 256;
constexpr size_t kMaxStringLen = 4096;
constexpr size_t kMaxSections = 4096;

struct Crc32Table {
    uint32_t entries[256];

    Crc32Table()
    {
        for (uint32_t i = 0; i < 256; ++i) {
            uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? (0xedb88320u ^ (c >> 1)) : (c >> 1);
            entries[i] = c;
        }
    }
};

std::string
dirnameOf(const std::string &path)
{
    size_t slash = path.find_last_of('/');
    if (slash == std::string::npos)
        return ".";
    if (slash == 0)
        return "/";
    return path.substr(0, slash);
}

/** Write @p bytes to @p path atomically: tmp file + rename. */
void
writeFileAtomic(const std::string &path, const std::string &bytes)
{
    std::string tmp = path + ".tmp";
    {
        OutputFile out(tmp);
        out.write(bytes);
        out.flush();
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        fatal("checkpoint: cannot rename '", tmp, "' to '", path, "'");
    }
}

/** Slurp a file; empty optional-style via @p ok for existence probes. */
bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in.good())
        return false;
    std::ostringstream os;
    os << in.rdbuf();
    out = os.str();
    return true;
}

} // namespace

uint32_t
crc32(const uint8_t *data, size_t size, uint32_t seed)
{
    static const Crc32Table table;
    uint32_t c = seed ^ 0xffffffffu;
    for (size_t i = 0; i < size; ++i)
        c = table.entries[(c ^ data[i]) & 0xff] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

void
ByteWriter::str(const std::string &s)
{
    u32(uint32_t(s.size()));
    buf_.insert(buf_.end(), s.begin(), s.end());
}

void
ByteWriter::u64s(const uint64_t *words, size_t n)
{
    if constexpr (std::endian::native == std::endian::little) {
        const size_t at = buf_.size();
        buf_.resize(at + n * 8);
        if (n)
            std::memcpy(buf_.data() + at, words, n * 8);
    } else {
        for (size_t i = 0; i < n; ++i)
            u64(words[i]);
    }
}

void
ByteWriter::vec64(const std::vector<uint64_t> &v)
{
    u32(uint32_t(v.size()));
    u64s(v.data(), v.size());
}

void
ByteReader::need(size_t n) const
{
    if (size_ - off_ < n)
        fatal("checkpoint: ", what_, " truncated at byte ", off_,
              " (need ", n, " more byte(s), have ", size_ - off_, ")");
}

uint8_t
ByteReader::u8()
{
    need(1);
    return data_[off_++];
}

uint32_t
ByteReader::u32()
{
    need(4);
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i)
        v |= uint32_t(data_[off_ + i]) << (8 * i);
    off_ += 4;
    return v;
}

uint64_t
ByteReader::u64()
{
    need(8);
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= uint64_t(data_[off_ + i]) << (8 * i);
    off_ += 8;
    return v;
}

void
ByteReader::u64s(uint64_t *out, size_t n)
{
    need(n * 8);
    if constexpr (std::endian::native == std::endian::little) {
        if (n)
            std::memcpy(out, data_ + off_, n * 8);
        off_ += n * 8;
    } else {
        for (size_t i = 0; i < n; ++i)
            out[i] = u64();
    }
}

void
ByteReader::raw(uint8_t *out, size_t n)
{
    need(n);
    if (n)
        std::memcpy(out, data_ + off_, n);
    off_ += n;
}

bool
ByteReader::flag()
{
    size_t at = off_;
    uint8_t v = u8();
    if (v > 1)
        fatal("checkpoint: ", what_, " has invalid boolean value ",
              unsigned(v), " at byte ", at);
    return v != 0;
}

std::string
ByteReader::str(size_t max_len)
{
    size_t at = off_;
    uint32_t len = u32();
    if (len > max_len)
        fatal("checkpoint: ", what_, " string length ", len, " at byte ",
              at, " exceeds the cap of ", max_len);
    need(len);
    std::string s(reinterpret_cast<const char *>(data_ + off_), len);
    off_ += len;
    return s;
}

std::vector<uint64_t>
ByteReader::vec64(size_t max_elems)
{
    size_t at = off_;
    uint32_t count = u32();
    if (count > max_elems)
        fatal("checkpoint: ", what_, " vector length ", count,
              " at byte ", at, " exceeds the cap of ", max_elems);
    need(size_t(count) * 8);
    std::vector<uint64_t> v(count);
    u64s(v.data(), count);
    return v;
}

void
ByteReader::expectEnd() const
{
    if (off_ != size_)
        fatal("checkpoint: ", what_, " has ", size_ - off_,
              " trailing byte(s) at byte ", off_);
}

void
Snapshot::add(const std::string &name, std::vector<uint8_t> bytes)
{
    assertThat(find(name) == nullptr,
               "duplicate snapshot section '" + name + "'");
    sections.push_back({name, std::move(bytes)});
}

const SnapshotSection *
Snapshot::find(const std::string &name) const
{
    for (const SnapshotSection &s : sections)
        if (s.name == name)
            return &s;
    return nullptr;
}

ByteReader
Snapshot::reader(const std::string &name) const
{
    const SnapshotSection *s = find(name);
    if (!s)
        fatal("checkpoint: snapshot of '", design,
              "' is missing required section '", name, "'");
    return ByteReader(s->bytes.data(), s->bytes.size(),
                      "section '" + name + "'");
}

std::vector<uint8_t>
encodeSnapshot(const Snapshot &snap)
{
    ByteWriter w;
    for (char c : kMagic)
        w.u8(uint8_t(c));
    w.u32(Snapshot::kVersion);
    w.str(snap.design);
    w.str(snap.engine);
    w.u64(snap.cycle);
    w.u32(uint32_t(snap.sections.size()));
    for (const SnapshotSection &s : snap.sections) {
        w.str(s.name);
        w.u64(s.bytes.size());
        w.u32(crc32(s.bytes.data(), s.bytes.size()));
        w.raw(s.bytes.data(), s.bytes.size());
    }
    w.u32(crc32(w.bytes().data(), w.bytes().size()));
    return w.take();
}

Snapshot
decodeSnapshot(const uint8_t *data, size_t size)
{
    ByteReader r(data, size, "binary");
    for (size_t i = 0; i < sizeof(kMagic); ++i)
        if (r.u8() != uint8_t(kMagic[i]))
            fatal("checkpoint: bad magic at byte ", i,
                  " (not an assassyn.ckpt.v1 binary)");
    uint32_t version = r.u32();
    if (version != Snapshot::kVersion)
        fatal("checkpoint: unsupported format version ", version,
              " (this build reads version ", Snapshot::kVersion, ")");
    Snapshot snap;
    snap.design = r.str(kMaxStringLen);
    snap.engine = r.str(kMaxStringLen);
    snap.cycle = r.u64();
    uint32_t count = r.u32();
    if (count > kMaxSections)
        fatal("checkpoint: section count ", count, " exceeds the cap of ",
              kMaxSections);
    for (uint32_t i = 0; i < count; ++i) {
        SnapshotSection s;
        s.name = r.str(kMaxNameLen);
        uint64_t len = r.u64();
        uint32_t stored_crc = r.u32();
        if (len > r.remaining())
            fatal("checkpoint: section '", s.name, "' claims ", len,
                  " byte(s) at byte ", r.offset(), " but only ",
                  r.remaining(), " remain");
        s.bytes.resize(size_t(len));
        r.raw(s.bytes.data(), s.bytes.size());
        uint32_t computed = crc32(s.bytes.data(), s.bytes.size());
        if (computed != stored_crc)
            fatal("checkpoint: section '", s.name,
                  "' CRC mismatch (stored 0x", std::hex, stored_crc,
                  ", computed 0x", computed, std::dec, ")");
        if (snap.find(s.name))
            fatal("checkpoint: duplicate section '", s.name, "'");
        snap.sections.push_back(std::move(s));
    }
    if (r.remaining() != 4)
        fatal("checkpoint: expected the 4-byte file CRC at byte ",
              r.offset(), ", found ", r.remaining(), " byte(s)");
    uint32_t stored_file_crc = r.u32();
    uint32_t computed_file_crc = crc32(data, size - 4);
    if (stored_file_crc != computed_file_crc)
        fatal("checkpoint: file CRC mismatch (stored 0x", std::hex,
              stored_file_crc, ", computed 0x", computed_file_crc,
              std::dec, ") — the snapshot is corrupted");
    return snap;
}

void
saveCheckpoint(const Snapshot &snap, const std::string &manifest_path)
{
    std::vector<uint8_t> blob = encodeSnapshot(snap);
    std::string binary_path = manifest_path + ".bin";
    std::string binary_name = binary_path;
    size_t slash = binary_name.find_last_of('/');
    if (slash != std::string::npos)
        binary_name = binary_name.substr(slash + 1);

    JsonWriter j;
    j.beginObject();
    j.key("schema");
    j.value(kSchema);
    j.key("design");
    j.value(snap.design);
    j.key("engine");
    j.value(snap.engine);
    j.key("cycle");
    j.value(snap.cycle);
    j.key("binary");
    j.value(binary_name);
    j.key("binary_bytes");
    j.value(uint64_t(blob.size()));
    j.key("binary_crc32");
    j.value(uint64_t(crc32(blob.data(), blob.size())));
    j.key("sections");
    j.beginArray();
    for (const SnapshotSection &s : snap.sections) {
        j.beginObject();
        j.key("name");
        j.value(s.name);
        j.key("bytes");
        j.value(uint64_t(s.bytes.size()));
        j.key("crc32");
        j.value(uint64_t(crc32(s.bytes.data(), s.bytes.size())));
        j.endObject();
    }
    j.endArray();
    j.endObject();

    // Binary first, manifest last: a manifest on disk always points at
    // a complete blob, so a crash between the two writes leaves a
    // stale-but-loadable previous checkpoint or none at all.
    writeFileAtomic(binary_path,
                    std::string(blob.begin(), blob.end()));
    writeFileAtomic(manifest_path, j.str());
}

Snapshot
loadCheckpoint(const std::string &manifest_path)
{
    std::string text;
    if (!readFile(manifest_path, text))
        fatal("checkpoint: cannot read manifest '", manifest_path, "'");
    jsonv::Value doc;
    try {
        doc = jsonv::parse(text);
    } catch (const FatalError &err) {
        fatal("checkpoint: manifest '", manifest_path,
              "' is not valid JSON: ", err.what());
    }
    if (!doc.isObject())
        fatal("checkpoint: manifest '", manifest_path,
              "' is not a JSON object");
    auto need = [&](const char *key) -> const jsonv::Value & {
        const jsonv::Value *v = doc.find(key);
        if (!v)
            fatal("checkpoint: manifest '", manifest_path,
                  "' is missing required key '", key, "'");
        return *v;
    };
    if (need("schema").string != kSchema)
        fatal("checkpoint: manifest '", manifest_path,
              "' has schema '", need("schema").string, "', expected '",
              kSchema, "'");
    const std::string &binary_name = need("binary").string;
    if (binary_name.empty())
        fatal("checkpoint: manifest '", manifest_path,
              "' has an empty 'binary' entry");
    std::string binary_path = dirnameOf(manifest_path) + "/" + binary_name;

    std::string blob;
    if (!readFile(binary_path, blob))
        fatal("checkpoint: cannot read binary '", binary_path,
              "' named by manifest '", manifest_path, "'");
    if (blob.size() != need("binary_bytes").u64())
        fatal("checkpoint: binary '", binary_path, "' is ", blob.size(),
              " byte(s), manifest expects ", need("binary_bytes").u64());
    const uint8_t *data = reinterpret_cast<const uint8_t *>(blob.data());
    uint32_t file_crc = crc32(data, blob.size());
    if (file_crc != uint32_t(need("binary_crc32").u64()))
        fatal("checkpoint: binary '", binary_path,
              "' CRC mismatch (manifest 0x", std::hex,
              uint32_t(need("binary_crc32").u64()), ", computed 0x",
              file_crc, std::dec, ")");

    Snapshot snap = decodeSnapshot(data, blob.size());
    if (snap.design != need("design").string ||
        snap.engine != need("engine").string ||
        snap.cycle != need("cycle").u64())
        fatal("checkpoint: manifest '", manifest_path,
              "' disagrees with its binary on design/engine/cycle");
    const jsonv::Value &sections = need("sections");
    if (!sections.isArray() ||
        sections.array.size() != snap.sections.size())
        fatal("checkpoint: manifest '", manifest_path, "' lists ",
              sections.isArray() ? sections.array.size() : 0,
              " section(s), binary has ", snap.sections.size());
    for (size_t i = 0; i < snap.sections.size(); ++i) {
        const jsonv::Value &m = sections.array[i];
        const jsonv::Value *name = m.find("name");
        const jsonv::Value *bytes = m.find("bytes");
        const jsonv::Value *crc = m.find("crc32");
        const SnapshotSection &s = snap.sections[i];
        if (!name || !bytes || !crc || name->string != s.name ||
            bytes->u64() != s.bytes.size() ||
            uint32_t(crc->u64()) != crc32(s.bytes.data(), s.bytes.size()))
            fatal("checkpoint: manifest '", manifest_path,
                  "' disagrees with the binary on section '", s.name,
                  "' (index ", i, ")");
    }
    return snap;
}

} // namespace sim
} // namespace assassyn
