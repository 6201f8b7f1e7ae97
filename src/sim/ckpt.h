/**
 * @file
 * Deterministic checkpoint/restore of run state (docs/robustness.md,
 * "Checkpoint & crash recovery").
 *
 * A Snapshot is the engine-portable serialization of every piece of
 * mutable run state a simulator instance owns: architectural arrays,
 * FIFO contents and traffic counters, event counters, the cycle
 * number, the watchdog's zero-progress window, the captured log
 * stream, the timeline-trace ring, and (event engine only) the
 * shuffle RNG position. Everything *immutable* — the Program tapes,
 * the Netlist cells, the fault plan — is deliberately excluded: a
 * restore target is built from the same design and options, and the
 * snapshot only rewinds its mutable state.
 *
 * Sections are keyed off the shared System IR ordering (arrays in
 * RegArray::id order, FIFOs in IR port order, modules in Module::id
 * order) and written by one serializer (sim::Engine, sim/engine.h),
 * so a snapshot taken by `sim::Simulator` restores into
 * `rtl::NetlistSim` and vice versa; the sections themselves are
 * byte-identical across engines for the same design at the same
 * cycle.
 *
 * On-disk format (`assassyn.ckpt.v1`): a JSON manifest (schema,
 * design, engine, cycle, per-section byte counts + CRC32s, binary
 * file name + whole-file CRC32) next to a binary blob
 * `<manifest>.bin`. Both are written atomically (tmp + rename) under
 * a PathLease. The loader is hardened: every malformed input — a
 * truncated file, a flipped bit, a lying length field — is a
 * structured FatalError naming the byte offset, section, or CRC pair,
 * never UB (fuzzed in tests/ckpt_test.cc, including under
 * ASSASSYN_SANITIZE=address).
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace assassyn {
namespace sim {

/** CRC-32 (poly 0xEDB88320, the zlib polynomial) of @p size bytes. */
uint32_t crc32(const uint8_t *data, size_t size, uint32_t seed = 0);

/** Little-endian append-only encoder for snapshot sections. */
class ByteWriter {
  public:
    void
    u8(uint8_t v)
    {
        buf_.push_back(v);
    }

    void
    u32(uint32_t v)
    {
        for (int i = 0; i < 4; ++i)
            buf_.push_back(uint8_t(v >> (8 * i)));
    }

    void
    u64(uint64_t v)
    {
        for (int i = 0; i < 8; ++i)
            buf_.push_back(uint8_t(v >> (8 * i)));
    }

    /** @p n u64 words, each encoded exactly as u64() would. */
    void u64s(const uint64_t *words, size_t n);

    /** Length-prefixed (u32) byte string. */
    void str(const std::string &s);

    /** Length-prefixed (u32) vector of u64 words. */
    void vec64(const std::vector<uint64_t> &v);

    const std::vector<uint8_t> &bytes() const { return buf_; }
    std::vector<uint8_t> take() { return std::move(buf_); }

  private:
    std::vector<uint8_t> buf_;
};

/**
 * Bounds-checked little-endian decoder. Every underrun or cap
 * violation is a FatalError naming @p what and the byte offset —
 * corrupted snapshots must degrade to a structured diagnostic, never
 * out-of-bounds reads.
 */
class ByteReader {
  public:
    ByteReader(const uint8_t *data, size_t size, std::string what)
        : data_(data), size_(size), what_(std::move(what))
    {
    }

    uint8_t u8();
    uint32_t u32();
    uint64_t u64();

    /** Decode @p n u64 words into @p out after one bounds check. */
    void u64s(uint64_t *out, size_t n);

    /** One serialized bool; any byte other than 0/1 is a fatal(). */
    bool flag();

    /** Length-prefixed string; length above @p max_len is a fatal(). */
    std::string str(size_t max_len = 1 << 16);

    /** Length-prefixed u64 vector with an element-count cap. */
    std::vector<uint64_t> vec64(size_t max_elems = size_t(1) << 32);

    size_t offset() const { return off_; }
    size_t remaining() const { return size_ - off_; }
    bool atEnd() const { return off_ == size_; }

    /** fatal() unless the payload was consumed exactly. */
    void expectEnd() const;

  private:
    void need(size_t n) const;

    const uint8_t *data_;
    size_t size_;
    size_t off_ = 0;
    std::string what_;
};

/** One named snapshot section (see the layout table in ckpt.cc). */
struct SnapshotSection {
    std::string name;
    std::vector<uint8_t> bytes;
};

/**
 * The in-memory checkpoint: engine identity plus named state
 * sections. Produced by Engine::snapshot() and consumed by
 * Engine::restore() (sim/engine.h); round-trips through
 * encodeSnapshot()/decodeSnapshot() and save/loadCheckpoint().
 */
struct Snapshot {
    static constexpr uint32_t kVersion = 1;

    std::string design; ///< System::name() of the source design
    std::string engine; ///< "event" or "netlist"
    uint64_t cycle = 0; ///< cycle number at the snapshot boundary

    std::vector<SnapshotSection> sections;

    /** Append a section (names must be unique). */
    void add(const std::string &name, std::vector<uint8_t> bytes);

    /** Lookup; nullptr when absent. */
    const SnapshotSection *find(const std::string &name) const;

    /** Bounds-checked reader over a section; fatal() when absent. */
    ByteReader reader(const std::string &name) const;
};

/** Serialize to the assassyn.ckpt.v1 binary layout (with CRCs). */
std::vector<uint8_t> encodeSnapshot(const Snapshot &snap);

/**
 * Parse an assassyn.ckpt.v1 binary blob. Hardened: bounds-checked
 * throughout, per-section and whole-file CRC verification; any
 * corruption is a FatalError naming offset/section/CRC.
 */
Snapshot decodeSnapshot(const uint8_t *data, size_t size);

/**
 * Write @p snap as a JSON manifest at @p manifest_path plus the binary
 * blob at `manifest_path + ".bin"`, both atomically (tmp + rename) so
 * a crash mid-checkpoint never leaves a half-written manifest behind.
 */
void saveCheckpoint(const Snapshot &snap, const std::string &manifest_path);

/**
 * Load a checkpoint saved with saveCheckpoint(): parses and validates
 * the manifest (schema assassyn.ckpt.v1), cross-checks it against the
 * binary blob (size, whole-file CRC, per-section table), and decodes
 * the blob. Every mismatch is a structured FatalError.
 */
Snapshot loadCheckpoint(const std::string &manifest_path);

/** True when a manifest and its binary blob both exist on disk. */
bool checkpointExists(const std::string &manifest_path);

} // namespace sim
} // namespace assassyn
