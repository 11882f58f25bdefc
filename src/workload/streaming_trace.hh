/**
 * @file
 * StreamingTraceWorkload: a Workload over an on-disk trace, decoded
 * in bounded-memory chunks instead of materialized.
 *
 * Memory bound: one decoded chunk (chunkRecords MicroInsts, ~160 KB),
 * one I/O buffer (ioBufferBytes), one line scratch of at most
 * maxLineBytes for the text formats, and a sparse seek index of one
 * {offset, line} entry per checkpointStride records (~16 bytes per
 * 8192 records — under 100 KB even for a 50 M-record multi-GB
 * trace). Nothing scales with file size beyond the index; a multi-GB
 * trace streams through nextBatch at a fixed footprint.
 *
 * Looping and skip semantics match TraceWorkload: the trace repeats
 * modulo its record count, and skip(n) advances the cursor without
 * decoding the skipped records. A trace that fits in one chunk is
 * decoded once, at open, and loops from the chunk. Otherwise skip is
 * O(1) amortized: the first full pass (whether driven by reads or
 * forced by an early skip) builds the checkpoint index as a side
 * effect of decoding it anyway; after that every skip is one seek
 * plus at most checkpointStride record decodes — and exactly one
 * seek for the fixed-width binary format on an uncompressed file. Gzip inputs seek by
 * inflate-and-discard (zlib has no random access), which is still
 * parse-free and proportional only to the distance from the nearest
 * restart point.
 *
 * Determinism: the decoded stream is a pure function of the file
 * bytes; next()/nextBatch()/skip() interleavings produce identical
 * streams, which is what the byte-identical sweep contract needs.
 */

#ifndef RCACHE_WORKLOAD_STREAMING_TRACE_HH
#define RCACHE_WORKLOAD_STREAMING_TRACE_HH

#include <memory>
#include <string>
#include <vector>

#include "workload/trace_format.hh"
#include "workload/workload.hh"

namespace rcache
{

/** Is transparent .gz input available in this build (zlib found)? */
bool gzipTraceSupported();

class TraceDecoder;

/** See file comment. */
class StreamingTraceWorkload final : public Workload
{
  public:
    /** Decoded records buffered per refill. */
    static constexpr std::size_t chunkRecords = 4096;
    /** Records between seek-index checkpoints. */
    static constexpr std::uint64_t checkpointStride = 8192;
    /** I/O buffer of the underlying byte source. */
    static constexpr std::size_t ioBufferBytes = 256 * 1024;
    /** Longest line the text formats accept, far above any record:
     *  a longer one is malformed, so input without newlines cannot
     *  grow the line scratch to the size of the file. */
    static constexpr std::size_t maxLineBytes = 64 * 1024;

    /**
     * Open @p spec for streaming. Eagerly decodes the first record so
     * unreadable files and malformed leading records fail here, not
     * mid-run.
     * @param name workload name for reports (the spec as written)
     * @return null with @p err set on failure
     */
    static std::unique_ptr<StreamingTraceWorkload>
    open(const TraceSpec &spec, const std::string &name,
         std::string *err);

    ~StreamingTraceWorkload() override;

    MicroInst next() override;
    void nextBatch(MicroInst *buf, std::size_t n) override;
    void reset() override;
    void skip(std::uint64_t n) override;
    std::string name() const override { return name_; }

    /**
     * Total records in the trace. Known after the first complete
     * pass; calling this earlier forces the remainder of that pass
     * (decode-and-discard, builds the seek index).
     */
    std::uint64_t records();

    /** @name Bounded-memory accounting (for tests)
     * Upper bound of bytes this workload holds across its chunk
     * buffer, I/O buffer, scratch, and seek index — the quantity the
     * streaming-reader test pins against a full materialization.
     */
    /// @{
    std::size_t residentBytes() const;
    /// @}

  private:
    StreamingTraceWorkload(std::unique_ptr<TraceDecoder> decoder,
                           std::string name);

    /** Refill the chunk from the decoder, wrapping at EOF. */
    void refill();
    /** Reposition the decoder at record @p target via the index. */
    void seekToRecord(std::uint64_t target);
    /** Finish the first pass so len_ and the index are complete. */
    void ensureLength();
    /** Decode up to @p n records at the cursor, maintaining the
     *  checkpoint index. EOF returns 0. Malformed input is fatal. */
    std::size_t decodeSome(MicroInst *buf, std::size_t n);

    std::unique_ptr<TraceDecoder> decoder_;
    std::string name_;

    /** Decoded-record buffer and its read window. */
    std::vector<MicroInst> chunk_;
    std::size_t chunkPos_ = 0;
    std::size_t chunkLen_ = 0;

    /** Record index the next next() returns (mod len_ once known). */
    std::uint64_t pos_ = 0;
    /** Record index the decoder will produce next. */
    std::uint64_t cursor_ = 0;
    /** Total records; 0 until the first pass completes. */
    std::uint64_t len_ = 0;
    /** Does chunk_ hold the whole trace (it fit in the first
     *  decode)? Then wraps, skips and resets only move chunkPos_. */
    bool resident_ = false;

    /** Seek index: entry k locates record k * checkpointStride. */
    struct Checkpoint
    {
        std::uint64_t byteOffset;
        std::uint64_t line;
    };
    std::vector<Checkpoint> checkpoints_;
};

/**
 * Stream @p spec and rewrite it as the native text format (one pass,
 * bounded memory) — the tools/ converter's engine and the round-trip
 * tests' fixture builder.
 * @param limit stop after this many records (0 = whole trace)
 * @return false with @p err set on open/decode failure
 */
bool convertTraceToNative(const TraceSpec &spec, std::ostream &os,
                          std::uint64_t limit, std::string *err);

} // namespace rcache

#endif // RCACHE_WORKLOAD_STREAMING_TRACE_HH
