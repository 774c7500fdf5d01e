#ifndef KBOOST_IO_CODEC_H_
#define KBOOST_IO_CODEC_H_

#include <cstdint>
#include <span>
#include <string>

#include "src/util/status.h"

namespace kboost {

/// Per-block compression codecs for pool-snapshot sections (src/io/pool_io).
///
/// A v3 snapshot stores the pool's one arena as eight flat uint32 sections,
/// plus a coverage section; the codec that encoded each section is recorded
/// per block in the snapshot's
/// section directory, so readers dispatch per block and a file may mix
/// codecs. Two are built in:
///
///   kNop    — identity. Sections are the raw little-endian uint32 stream,
///             byte-for-byte the arena memory. The only codec the zero-copy
///             mmap serving path accepts (a mapped section IS the arena).
///   kVarint — zigzag-delta + LEB128 varint. Each value is encoded as the
///             signed difference from its predecessor, zigzag-folded and
///             written base-128. The arena's id/offset streams are mostly
///             small values or gentle ramps (graph-relative offsets reset to
///             0 every graph, local edge ids are dense small ints), so most
///             deltas fit one or two bytes — the cold-storage codec.
///
/// Codecs are stateless and thread-safe; Encode/Decode of different blocks
/// may run concurrently on one instance.
enum class SnapshotCodec : uint32_t {
  kNop = 0,
  kVarint = 1,
};

/// The pluggable seam. Implementations must be exact: Decode(Encode(x)) == x
/// for every input, and Decode must reject — with a typed Status, never a
/// crash or a silent wrong value — any byte stream that is not exactly an
/// encoding of `out.size()` values (truncation, trailing bytes, varints
/// overflowing uint32).
class Codec {
 public:
  virtual ~Codec() = default;

  virtual SnapshotCodec id() const = 0;

  /// Appends the encoding of `values` to `*out` (which is not cleared).
  virtual void Encode(std::span<const uint32_t> values,
                      std::string* out) const = 0;

  /// Decodes exactly `out.size()` values from `encoded` into `out`.
  /// InvalidArgument when the stream is malformed, truncated, has trailing
  /// bytes, or reconstructs a value outside uint32.
  virtual Status Decode(std::span<const char> encoded,
                        std::span<uint32_t> out) const = 0;

  /// Upper bound on Encode output size for `count` values (buffer sizing).
  virtual size_t MaxEncodedBytes(size_t count) const = 0;
};

/// The codec registered under `id`, or nullptr for an unknown id — the
/// loader turns nullptr into a typed InvalidArgument naming the block.
const Codec* CodecById(uint32_t id);

/// Parses a codec name ("nop" | "varint") for the CLI/bench flags; nullptr
/// for an unknown name.
const Codec* CodecByName(const std::string& name);

/// Human-readable codec name for messages and bench labels.
const char* CodecName(SnapshotCodec codec);

}  // namespace kboost

#endif  // KBOOST_IO_CODEC_H_
