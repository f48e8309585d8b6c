//! Wire format of the NewMadeleine engine.
//!
//! A *frame* is what one driver send moves: a frame header followed by a
//! sequence of *entries*. Multiplexing several entries — possibly from
//! different logical flows — into one frame is the engine's aggregation
//! mechanism; the per-entry headers are "the extra header systematically
//! added to the data for allowing the reordering and the multiplexing of
//! the packets" whose cost the paper measures in §5.1.
//!
//! Entry kinds:
//!
//! * [`Entry::Data`] — an eager application segment, payload inline;
//! * [`Entry::Rts`] — rendezvous request-to-send announcing a large
//!   segment (no payload);
//! * [`Entry::Cts`] — clear-to-send reply granting a rendezvous;
//! * [`Entry::RdvData`] — one chunk of granted rendezvous data, placed
//!   at `offset` in the receive buffer (chunking enables the multirail
//!   strategy to spread one segment over several NICs).

use crate::segment::{Priority, SeqNo, Tag};
use std::fmt;

/// Frame header: magic (2) + version (1) + flags (1) + entry count (2)
/// + reserved (2).
pub const FRAME_HEADER_LEN: usize = 8;
/// Fixed entry header: kind (1) + flags (1) + lane (1) + reserved (1) +
/// tag (4) + seq (4) + len (4) + offset (4).
pub const ENTRY_HEADER_LEN: usize = 20;

const MAGIC: u16 = 0xAD3E;
const VERSION: u8 = 1;

const KIND_DATA: u8 = 1;
const KIND_RTS: u8 = 2;
const KIND_CTS: u8 = 3;
const KIND_RDV_DATA: u8 = 4;

/// Entry flag: this rendezvous chunk is the segment's last.
pub const EF_LAST_CHUNK: u8 = 0b0000_0001;

/// The fixed fields of one entry header, as packed on the wire.
///
/// [`pack_entry_header`]/[`unpack_entry_header`] move this whole
/// struct to and from its 20-byte wire image in straight-line code:
/// every store and load targets a constant offset of a fixed-size
/// array, so the compiler proves all bounds at compile time and the
/// per-entry header cost on the hot path is a handful of register
/// moves — no per-field capacity checks, no per-segment branching.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EntryHeader {
    /// Entry kind byte (`KIND_*`).
    pub kind: u8,
    /// Entry flag bits (`EF_*`).
    pub flags: u8,
    /// Scheduling lane ([`Priority::lane`]); meaningful for Data and
    /// Rts entries, zero elsewhere.
    pub lane: u8,
    /// Logical flow identifier.
    pub tag: Tag,
    /// Per-flow sequence number.
    pub seq: SeqNo,
    /// Payload length (Data/RdvData) or announced total (Rts/Cts).
    pub len: u32,
    /// Byte offset within the full segment (RdvData only).
    pub offset: u32,
}

/// Packs one entry header into its fixed 20-byte wire image.
/// Branchless: constant-offset stores into a stack array.
#[inline]
pub fn pack_entry_header(h: EntryHeader) -> [u8; ENTRY_HEADER_LEN] {
    let mut out = [0u8; ENTRY_HEADER_LEN];
    out[0] = h.kind;
    out[1] = h.flags;
    out[2] = h.lane;
    // out[3] stays zero (reserved).
    out[4..8].copy_from_slice(&h.tag.0.to_le_bytes());
    out[8..12].copy_from_slice(&h.seq.0.to_le_bytes());
    out[12..16].copy_from_slice(&h.len.to_le_bytes());
    out[16..20].copy_from_slice(&h.offset.to_le_bytes());
    out
}

/// Unpacks one entry header from its fixed 20-byte wire image.
/// Branchless: the caller supplies a fixed-size array reference, so
/// every field load is a constant-offset read with no further bounds
/// checks. Kind validation stays with the caller, which dispatches on
/// it anyway.
#[inline]
pub fn unpack_entry_header(h: &[u8; ENTRY_HEADER_LEN]) -> EntryHeader {
    EntryHeader {
        kind: h[0],
        flags: h[1],
        lane: h[2],
        tag: Tag(u32::from_le_bytes([h[4], h[5], h[6], h[7]])),
        seq: SeqNo(u32::from_le_bytes([h[8], h[9], h[10], h[11]])),
        len: u32::from_le_bytes([h[12], h[13], h[14], h[15]]),
        offset: u32::from_le_bytes([h[16], h[17], h[18], h[19]]),
    }
}

/// Packs the 8-byte frame header with the given entry count.
#[inline]
pub fn pack_frame_header(count: u16) -> [u8; FRAME_HEADER_LEN] {
    let mut out = [0u8; FRAME_HEADER_LEN];
    out[0..2].copy_from_slice(&MAGIC.to_le_bytes());
    out[2] = VERSION;
    // out[3] flags, out[6..8] reserved: zero.
    out[4..6].copy_from_slice(&count.to_le_bytes());
    out
}

/// Validates a frame header image and returns its entry count.
#[inline]
pub fn unpack_frame_header(h: &[u8; FRAME_HEADER_LEN]) -> Result<u16, WireError> {
    let magic = u16::from_le_bytes([h[0], h[1]]);
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    if h[2] != VERSION {
        return Err(WireError::BadVersion(h[2]));
    }
    Ok(u16::from_le_bytes([h[4], h[5]]))
}

/// A parsed entry borrowing its payload from the frame buffer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Entry<'a> {
    /// An eager application segment with inline payload.
    Data {
        /// Logical flow identifier.
        tag: Tag,
        /// Per-flow sequence number.
        seq: SeqNo,
        /// Scheduling lane the sender submitted the segment on.
        lane: u8,
        /// Payload bytes.
        payload: &'a [u8],
    },
    /// Rendezvous request-to-send (no payload).
    Rts {
        /// Logical flow identifier.
        tag: Tag,
        /// Per-flow sequence number.
        seq: SeqNo,
        /// Scheduling lane the sender submitted the segment on.
        lane: u8,
        /// Announced total length in bytes.
        total: u32,
    },
    /// Rendezvous clear-to-send grant.
    Cts {
        /// Logical flow identifier.
        tag: Tag,
        /// Per-flow sequence number.
        seq: SeqNo,
        /// Announced total length in bytes.
        total: u32,
    },
    /// One chunk of granted rendezvous payload.
    RdvData {
        /// Logical flow identifier.
        tag: Tag,
        /// Per-flow sequence number.
        seq: SeqNo,
        /// Byte offset within the full segment.
        offset: u32,
        /// Whether this is the final chunk of its segment.
        last: bool,
        /// Payload bytes.
        payload: &'a [u8],
    },
}

/// Wire decoding failures.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the structure was complete.
    Truncated,
    /// The frame does not start with the protocol magic.
    BadMagic(u16),
    /// The frame uses an unsupported protocol version.
    BadVersion(u8),
    /// Unknown entry kind byte.
    BadKind(u8),
    /// Bytes left over after the last declared entry.
    TrailingBytes(usize),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated frame"),
            WireError::BadMagic(m) => write!(f, "bad frame magic {m:#06x}"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadKind(k) => write!(f, "unknown entry kind {k}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last entry"),
        }
    }
}

impl std::error::Error for WireError {}

/// Writes the 8-byte frame header with a zero entry count (patched at
/// finish time by both encoders): one packed image, one append.
fn write_frame_header(buf: &mut Vec<u8>) {
    buf.extend_from_slice(&pack_frame_header(0));
}

/// Writes one 20-byte entry header: pack into a stack image (all
/// bounds compile-time), then one append — a single capacity check
/// instead of seven.
#[allow(clippy::too_many_arguments)]
fn write_entry_header(
    buf: &mut Vec<u8>,
    kind: u8,
    flags: u8,
    lane: u8,
    tag: Tag,
    seq: SeqNo,
    len: u32,
    offset: u32,
) {
    buf.extend_from_slice(&pack_entry_header(EntryHeader {
        kind,
        flags,
        lane,
        tag,
        seq,
        len,
        offset,
    }));
}

/// Incrementally builds one frame.
pub struct FrameBuilder {
    buf: Vec<u8>,
    count: u16,
    payload_segs: usize,
    payload_bytes: usize,
}

impl FrameBuilder {
    /// Starts an empty frame.
    pub fn new() -> Self {
        let mut buf = Vec::with_capacity(256);
        write_frame_header(&mut buf);
        FrameBuilder {
            buf,
            count: 0,
            payload_segs: 0,
            payload_bytes: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_header(
        &mut self,
        kind: u8,
        flags: u8,
        lane: u8,
        tag: Tag,
        seq: SeqNo,
        len: u32,
        offset: u32,
    ) {
        write_entry_header(&mut self.buf, kind, flags, lane, tag, seq, len, offset);
        self.count = self.count.checked_add(1).expect("entry count overflow"); // PANIC-OK: frame limits enforced by the planner before packing
    }

    /// Push data on the default (Normal) lane.
    pub fn push_data(&mut self, tag: Tag, seq: SeqNo, payload: &[u8]) {
        self.push_data_lane(tag, seq, Priority::Normal.lane(), payload);
    }

    /// Push data carrying an explicit scheduling lane.
    pub fn push_data_lane(&mut self, tag: Tag, seq: SeqNo, lane: u8, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("segment too large for wire"); // PANIC-OK: frame limits enforced by the planner before packing
        self.push_header(KIND_DATA, 0, lane, tag, seq, len, 0);
        self.buf.extend_from_slice(payload);
        self.payload_segs += 1;
        self.payload_bytes += payload.len();
    }

    /// Push rts on the default (Normal) lane.
    pub fn push_rts(&mut self, tag: Tag, seq: SeqNo, total: u32) {
        self.push_rts_lane(tag, seq, Priority::Normal.lane(), total);
    }

    /// Push rts carrying an explicit scheduling lane.
    pub fn push_rts_lane(&mut self, tag: Tag, seq: SeqNo, lane: u8, total: u32) {
        self.push_header(KIND_RTS, 0, lane, tag, seq, total, 0);
    }

    /// Push cts.
    pub fn push_cts(&mut self, tag: Tag, seq: SeqNo, total: u32) {
        self.push_header(KIND_CTS, 0, 0, tag, seq, total, 0);
    }

    /// Push rdv data.
    pub fn push_rdv_data(&mut self, tag: Tag, seq: SeqNo, offset: u32, last: bool, payload: &[u8]) {
        let len = u32::try_from(payload.len()).expect("chunk too large for wire"); // PANIC-OK: frame limits enforced by the planner before packing
        let flags = if last { EF_LAST_CHUNK } else { 0 };
        self.push_header(KIND_RDV_DATA, flags, 0, tag, seq, len, offset);
        self.buf.extend_from_slice(payload);
        self.payload_segs += 1;
        self.payload_bytes += payload.len();
    }

    /// Entries pushed so far.
    pub fn entry_count(&self) -> u16 {
        self.count
    }

    /// Number of distinct payload regions a gather-capable NIC would
    /// DMA separately (staging-copy decision input).
    pub fn payload_segments(&self) -> usize {
        self.payload_segs
    }

    /// Total payload bytes (staging-copy cost input).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Current frame length in bytes.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Finalizes and returns the wire bytes.
    pub fn finish(mut self) -> Vec<u8> {
        self.buf[4..6].copy_from_slice(&self.count.to_le_bytes());
        self.buf
    }
}

impl Default for FrameBuilder {
    fn default() -> Self {
        Self::new()
    }
}

/// Builds one frame as a header block plus borrowed payload slices, so
/// the transfer layer can hand a gather-capable NIC a multi-segment iov
/// instead of staging payloads through a contiguous copy (paper §4:
/// "the scheduler is responsible for staging copies when the hardware
/// cannot gather").
///
/// The wire encoding is bit-identical to [`FrameBuilder`]: entry
/// headers are interleaved with payloads on the wire, so the encoder
/// keeps all headers in one contiguous `meta` buffer and records where
/// each payload splices in. [`FrameEncoder::finish`] yields a
/// [`FrameIov`] that can either emit the gather iov or stage the frame
/// into a single buffer when the NIC cannot gather.
pub struct FrameEncoder<'p> {
    meta: Vec<u8>,
    splices: Vec<(usize, &'p [u8])>,
    count: u16,
    payload_segs: usize,
    payload_bytes: usize,
}

impl<'p> FrameEncoder<'p> {
    /// Starts an empty frame with a fresh header buffer.
    pub fn new() -> Self {
        Self::with_buffer(Vec::with_capacity(256))
    }

    /// Starts an empty frame reusing `buf` as the header buffer
    /// (frame pooling: the buffer is cleared, its capacity kept).
    pub fn with_buffer(mut buf: Vec<u8>) -> Self {
        buf.clear();
        write_frame_header(&mut buf);
        FrameEncoder {
            meta: buf,
            splices: Vec::new(),
            count: 0,
            payload_segs: 0,
            payload_bytes: 0,
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn push_header(
        &mut self,
        kind: u8,
        flags: u8,
        lane: u8,
        tag: Tag,
        seq: SeqNo,
        len: u32,
        offset: u32,
    ) {
        write_entry_header(&mut self.meta, kind, flags, lane, tag, seq, len, offset);
        self.count = self.count.checked_add(1).expect("entry count overflow"); // PANIC-OK: frame limits enforced by the planner before packing
    }

    fn push_payload(&mut self, payload: &'p [u8]) {
        self.payload_segs += 1;
        self.payload_bytes += payload.len();
        if !payload.is_empty() {
            self.splices.push((self.meta.len(), payload));
        }
    }

    /// Push data on the default (Normal) lane (payload borrowed, not
    /// copied).
    pub fn push_data(&mut self, tag: Tag, seq: SeqNo, payload: &'p [u8]) {
        self.push_data_lane(tag, seq, Priority::Normal.lane(), payload);
    }

    /// Push data carrying an explicit scheduling lane (payload
    /// borrowed, not copied).
    pub fn push_data_lane(&mut self, tag: Tag, seq: SeqNo, lane: u8, payload: &'p [u8]) {
        let len = u32::try_from(payload.len()).expect("segment too large for wire"); // PANIC-OK: frame limits enforced by the planner before packing
        self.push_header(KIND_DATA, 0, lane, tag, seq, len, 0);
        self.push_payload(payload);
    }

    /// Push rts on the default (Normal) lane.
    pub fn push_rts(&mut self, tag: Tag, seq: SeqNo, total: u32) {
        self.push_rts_lane(tag, seq, Priority::Normal.lane(), total);
    }

    /// Push rts carrying an explicit scheduling lane.
    pub fn push_rts_lane(&mut self, tag: Tag, seq: SeqNo, lane: u8, total: u32) {
        self.push_header(KIND_RTS, 0, lane, tag, seq, total, 0);
    }

    /// Push cts.
    pub fn push_cts(&mut self, tag: Tag, seq: SeqNo, total: u32) {
        self.push_header(KIND_CTS, 0, 0, tag, seq, total, 0);
    }

    /// Push rdv data (payload borrowed, not copied).
    pub fn push_rdv_data(
        &mut self,
        tag: Tag,
        seq: SeqNo,
        offset: u32,
        last: bool,
        payload: &'p [u8],
    ) {
        let len = u32::try_from(payload.len()).expect("chunk too large for wire"); // PANIC-OK: frame limits enforced by the planner before packing
        let flags = if last { EF_LAST_CHUNK } else { 0 };
        self.push_header(KIND_RDV_DATA, flags, 0, tag, seq, len, offset);
        self.push_payload(payload);
    }

    /// Entries pushed so far.
    pub fn entry_count(&self) -> u16 {
        self.count
    }

    /// Number of distinct payload regions a gather-capable NIC would
    /// DMA separately (staging-copy decision input).
    pub fn payload_segments(&self) -> usize {
        self.payload_segs
    }

    /// Total payload bytes (staging-copy cost input).
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Is empty.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Total frame length in wire bytes.
    pub fn wire_len(&self) -> usize {
        self.meta.len() + self.payload_bytes
    }

    /// Finalizes the headers and returns the iov assembler.
    pub fn finish(mut self) -> FrameIov<'p> {
        self.meta[4..6].copy_from_slice(&self.count.to_le_bytes());
        FrameIov {
            meta: self.meta,
            splices: self.splices,
            payload_segs: self.payload_segs,
            payload_bytes: self.payload_bytes,
        }
    }
}

impl Default for FrameEncoder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

/// A finished frame as a header block plus payload splice points.
///
/// Emits either a multi-segment gather iov ([`FrameIov::segments`]) or
/// a staged contiguous copy ([`FrameIov::stage_into`]); both produce
/// identical wire bytes.
pub struct FrameIov<'p> {
    meta: Vec<u8>,
    splices: Vec<(usize, &'p [u8])>,
    payload_segs: usize,
    payload_bytes: usize,
}

impl<'p> FrameIov<'p> {
    /// Wire-order iov: alternating header-block fragments and borrowed
    /// payload slices. Concatenating the segments yields exactly the
    /// bytes [`FrameBuilder`] would have produced.
    pub fn segments(&self) -> Vec<&[u8]> {
        let mut segs = Vec::with_capacity(2 * self.splices.len() + 1);
        let mut cursor = 0;
        for &(at, payload) in &self.splices {
            if at > cursor {
                segs.push(&self.meta[cursor..at]);
                cursor = at;
            }
            segs.push(payload);
        }
        if cursor < self.meta.len() {
            segs.push(&self.meta[cursor..]);
        }
        segs
    }

    /// Number of iov segments [`segments`](FrameIov::segments) would
    /// emit, without allocating (gather-capability decision input).
    pub fn segment_count(&self) -> usize {
        let mut n = 0;
        let mut cursor = 0;
        for &(at, _) in &self.splices {
            if at > cursor {
                n += 1;
                cursor = at;
            }
            n += 1;
        }
        if cursor < self.meta.len() {
            n += 1;
        }
        n
    }

    /// Stages the frame into one contiguous buffer (the copy charged
    /// via `CpuMeter::charge_memcpy` when the NIC cannot gather). The
    /// buffer is cleared first so a pooled buffer can be reused.
    pub fn stage_into(&self, buf: &mut Vec<u8>) {
        buf.clear();
        buf.reserve(self.wire_len());
        let mut cursor = 0;
        for &(at, payload) in &self.splices {
            buf.extend_from_slice(&self.meta[cursor..at]);
            cursor = at;
            buf.extend_from_slice(payload);
        }
        buf.extend_from_slice(&self.meta[cursor..]);
    }

    /// Total frame length in wire bytes.
    pub fn wire_len(&self) -> usize {
        self.meta.len() + self.payload_bytes
    }

    /// Number of payload regions in the frame.
    pub fn payload_segments(&self) -> usize {
        self.payload_segs
    }

    /// Total payload bytes in the frame.
    pub fn payload_bytes(&self) -> usize {
        self.payload_bytes
    }

    /// Releases the header buffer for recycling (frame pooling).
    pub fn into_meta(self) -> Vec<u8> {
        self.meta
    }
}

/// Parses a frame into entries.
///
/// Each header is bounds-checked exactly once (`get` of a fixed-size
/// window); field extraction from the resulting `[u8; N]` references
/// is branch-free straight-line code.
pub fn parse_frame(bytes: &[u8]) -> Result<Vec<Entry<'_>>, WireError> {
    let fh: &[u8; FRAME_HEADER_LEN] = bytes
        .get(..FRAME_HEADER_LEN)
        .and_then(|w| w.try_into().ok())
        .ok_or(WireError::Truncated)?;
    let count = unpack_frame_header(fh)? as usize;
    let mut entries = Vec::with_capacity(count);
    let mut at = FRAME_HEADER_LEN;
    for _ in 0..count {
        let hw: &[u8; ENTRY_HEADER_LEN] = bytes
            .get(at..at + ENTRY_HEADER_LEN)
            .and_then(|w| w.try_into().ok())
            .ok_or(WireError::Truncated)?;
        let h = unpack_entry_header(hw);
        at += ENTRY_HEADER_LEN;
        let entry = match h.kind {
            KIND_RTS => Entry::Rts {
                tag: h.tag,
                seq: h.seq,
                lane: h.lane,
                total: h.len,
            },
            KIND_CTS => Entry::Cts {
                tag: h.tag,
                seq: h.seq,
                total: h.len,
            },
            KIND_DATA | KIND_RDV_DATA => {
                let payload = bytes
                    .get(at..at + h.len as usize)
                    .ok_or(WireError::Truncated)?;
                at += h.len as usize;
                if h.kind == KIND_DATA {
                    Entry::Data {
                        tag: h.tag,
                        seq: h.seq,
                        lane: h.lane,
                        payload,
                    }
                } else {
                    Entry::RdvData {
                        tag: h.tag,
                        seq: h.seq,
                        offset: h.offset,
                        last: h.flags & EF_LAST_CHUNK != 0,
                        payload,
                    }
                }
            }
            k => return Err(WireError::BadKind(k)),
        };
        entries.push(entry);
    }
    if at != bytes.len() {
        return Err(WireError::TrailingBytes(bytes.len() - at));
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_frame_roundtrips() {
        let frame = FrameBuilder::new().finish();
        assert_eq!(frame.len(), FRAME_HEADER_LEN);
        assert_eq!(parse_frame(&frame).unwrap(), vec![]);
    }

    #[test]
    fn mixed_entries_roundtrip() {
        let mut fb = FrameBuilder::new();
        fb.push_cts(Tag(7), SeqNo(1), 1 << 20);
        fb.push_data(Tag(3), SeqNo(0), b"small payload");
        fb.push_rts(Tag(3), SeqNo(1), 512 * 1024);
        fb.push_rdv_data(Tag(9), SeqNo(4), 4096, true, b"chunk");
        assert_eq!(fb.entry_count(), 4);
        assert_eq!(fb.payload_segments(), 2);
        assert_eq!(fb.payload_bytes(), 13 + 5);
        let frame = fb.finish();
        let entries = parse_frame(&frame).unwrap();
        assert_eq!(entries.len(), 4);
        assert_eq!(
            entries[0],
            Entry::Cts {
                tag: Tag(7),
                seq: SeqNo(1),
                total: 1 << 20
            }
        );
        assert_eq!(
            entries[1],
            Entry::Data {
                tag: Tag(3),
                seq: SeqNo(0),
                lane: Priority::Normal.lane(),
                payload: b"small payload"
            }
        );
        assert_eq!(
            entries[2],
            Entry::Rts {
                tag: Tag(3),
                seq: SeqNo(1),
                lane: Priority::Normal.lane(),
                total: 512 * 1024
            }
        );
        assert_eq!(
            entries[3],
            Entry::RdvData {
                tag: Tag(9),
                seq: SeqNo(4),
                offset: 4096,
                last: true,
                payload: b"chunk"
            }
        );
    }

    #[test]
    fn header_sizes_match_constants() {
        let mut fb = FrameBuilder::new();
        fb.push_data(Tag(0), SeqNo(0), b"abc");
        let frame = fb.finish();
        assert_eq!(frame.len(), FRAME_HEADER_LEN + ENTRY_HEADER_LEN + 3);
    }

    #[test]
    fn bad_magic_is_rejected() {
        let mut frame = FrameBuilder::new().finish();
        frame[0] = 0;
        assert_eq!(
            parse_frame(&frame).unwrap_err(),
            WireError::BadMagic(0xAD00)
        );
    }

    #[test]
    fn bad_version_is_rejected() {
        let mut frame = FrameBuilder::new().finish();
        frame[2] = 99;
        assert_eq!(parse_frame(&frame).unwrap_err(), WireError::BadVersion(99));
    }

    #[test]
    fn truncation_is_detected_at_every_boundary() {
        let mut fb = FrameBuilder::new();
        fb.push_data(Tag(1), SeqNo(2), b"payload!");
        let frame = fb.finish();
        for cut in 1..frame.len() {
            let err = parse_frame(&frame[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::Truncated | WireError::BadMagic(_)),
                "cut at {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut frame = {
            let mut fb = FrameBuilder::new();
            fb.push_rts(Tag(1), SeqNo(0), 100);
            fb.finish()
        };
        frame.push(0xFF);
        assert_eq!(
            parse_frame(&frame).unwrap_err(),
            WireError::TrailingBytes(1)
        );
    }

    #[test]
    fn unknown_kind_is_rejected() {
        // 5 is a retired kind (credit returns): refused like any other.
        for kind in [42, 5] {
            let mut fb = FrameBuilder::new();
            fb.push_rts(Tag(1), SeqNo(0), 100);
            let mut frame = fb.finish();
            frame[FRAME_HEADER_LEN] = kind;
            assert_eq!(parse_frame(&frame).unwrap_err(), WireError::BadKind(kind));
        }
    }

    /// Pushes the same mixed entry sequence into both encoders.
    fn mixed_both<'p>(
        fb: &mut FrameBuilder,
        fe: &mut FrameEncoder<'p>,
        p1: &'p [u8],
        p2: &'p [u8],
    ) {
        fb.push_cts(Tag(7), SeqNo(1), 1 << 20);
        fe.push_cts(Tag(7), SeqNo(1), 1 << 20);
        fb.push_data(Tag(3), SeqNo(0), p1);
        fe.push_data(Tag(3), SeqNo(0), p1);
        fb.push_rts(Tag(3), SeqNo(1), 512 * 1024);
        fe.push_rts(Tag(3), SeqNo(1), 512 * 1024);
        fb.push_rdv_data(Tag(9), SeqNo(4), 4096, true, p2);
        fe.push_rdv_data(Tag(9), SeqNo(4), 4096, true, p2);
    }

    #[test]
    fn encoder_segments_match_builder_bytes() {
        let mut fb = FrameBuilder::new();
        let mut fe = FrameEncoder::new();
        mixed_both(&mut fb, &mut fe, b"small payload", b"chunk");
        assert_eq!(fe.entry_count(), fb.entry_count());
        assert_eq!(fe.payload_segments(), fb.payload_segments());
        assert_eq!(fe.payload_bytes(), fb.payload_bytes());
        assert_eq!(fe.wire_len(), fb.len());
        let reference = fb.finish();
        let iov = fe.finish();
        assert_eq!(iov.wire_len(), reference.len());
        let segs = iov.segments();
        assert_eq!(segs.len(), iov.segment_count());
        // Mixed frame: header block split around each payload —
        // [hdr..cts..data-hdr][payload1][rts-hdr..rdv-hdr][payload2]
        assert_eq!(segs.len(), 4);
        let gathered: Vec<u8> = segs.concat();
        assert_eq!(gathered, reference, "gather iov must be wire-identical");
        parse_frame(&gathered).unwrap();
    }

    #[test]
    fn encoder_stage_into_matches_builder_bytes() {
        let mut fb = FrameBuilder::new();
        let mut fe = FrameEncoder::new();
        mixed_both(&mut fb, &mut fe, b"small payload", b"chunk");
        let reference = fb.finish();
        let iov = fe.finish();
        let mut staged = vec![0xEEu8; 3]; // stale content must be cleared
        iov.stage_into(&mut staged);
        assert_eq!(staged, reference);
    }

    #[test]
    fn encoder_skips_empty_payloads_in_iov() {
        let mut fe = FrameEncoder::new();
        fe.push_data(Tag(1), SeqNo(0), b"");
        fe.push_data(Tag(1), SeqNo(1), b"x");
        assert_eq!(fe.payload_segments(), 2);
        let iov = fe.finish();
        // Empty payload contributes no segment: [headers][b"x"].
        assert_eq!(iov.segment_count(), 2);
        let gathered: Vec<u8> = iov.segments().concat();
        let entries = parse_frame(&gathered).unwrap();
        assert_eq!(entries.len(), 2);
        assert_eq!(
            entries[0],
            Entry::Data {
                tag: Tag(1),
                seq: SeqNo(0),
                lane: Priority::Normal.lane(),
                payload: b""
            }
        );
    }

    #[test]
    fn encoder_headers_only_frame_is_single_segment() {
        let mut fe = FrameEncoder::new();
        fe.push_rts(Tag(1), SeqNo(0), 1 << 16);
        fe.push_cts(Tag(2), SeqNo(0), 1 << 16);
        let iov = fe.finish();
        assert_eq!(iov.segment_count(), 1);
        assert_eq!(iov.segments().len(), 1);
    }

    #[test]
    fn encoder_trailing_payload_has_no_tail_fragment() {
        let mut fe = FrameEncoder::new();
        fe.push_data(Tag(1), SeqNo(0), b"tail");
        let iov = fe.finish();
        // [frame-hdr + entry-hdr][payload]; nothing after the payload.
        assert_eq!(iov.segment_count(), 2);
        let segs = iov.segments();
        assert_eq!(segs[1], b"tail");
    }

    #[test]
    fn encoder_with_buffer_recycles_and_clears() {
        let stale = vec![0xAAu8; 128];
        let cap = stale.capacity();
        let mut fe = FrameEncoder::with_buffer(stale);
        fe.push_cts(Tag(9), SeqNo(0), 9);
        let iov = fe.finish();
        let gathered: Vec<u8> = iov.segments().concat();
        assert_eq!(
            parse_frame(&gathered).unwrap(),
            vec![Entry::Cts {
                tag: Tag(9),
                seq: SeqNo(0),
                total: 9
            }]
        );
        let recycled = iov.into_meta();
        assert!(recycled.capacity() >= cap.min(128));
        assert_eq!(recycled.len(), FRAME_HEADER_LEN + ENTRY_HEADER_LEN);
    }

    #[test]
    fn entry_header_pack_unpack_roundtrips() {
        for (kind, flags) in [
            (KIND_DATA, 0),
            (KIND_RTS, 0),
            (KIND_CTS, 0),
            (KIND_RDV_DATA, EF_LAST_CHUNK),
        ] {
            let h = EntryHeader {
                kind,
                flags,
                lane: 3,
                tag: Tag(0xDEAD_BEEF),
                seq: SeqNo(0x0102_0304),
                len: 0xA5A5_5A5A,
                offset: 0x1122_3344,
            };
            assert_eq!(unpack_entry_header(&pack_entry_header(h)), h);
        }
    }

    #[test]
    fn packed_entry_header_matches_builder_layout() {
        // The packed image must be byte-identical to what the builders
        // put on the wire, or the pack path silently forks the format.
        let mut fb = FrameBuilder::new();
        fb.push_rdv_data(Tag(9), SeqNo(4), 4096, true, b"x");
        let frame = fb.finish();
        let packed = pack_entry_header(EntryHeader {
            kind: KIND_RDV_DATA,
            flags: EF_LAST_CHUNK,
            lane: 0,
            tag: Tag(9),
            seq: SeqNo(4),
            len: 1,
            offset: 4096,
        });
        assert_eq!(
            &frame[FRAME_HEADER_LEN..FRAME_HEADER_LEN + ENTRY_HEADER_LEN],
            &packed
        );
    }

    #[test]
    fn frame_header_pack_unpack_roundtrips() {
        for count in [0u16, 1, 7, u16::MAX] {
            let img = pack_frame_header(count);
            assert_eq!(unpack_frame_header(&img), Ok(count));
        }
        let mut bad = pack_frame_header(1);
        bad[0] = 0;
        assert_eq!(unpack_frame_header(&bad), Err(WireError::BadMagic(0xAD00)));
        let mut bad = pack_frame_header(1);
        bad[2] = 9;
        assert_eq!(unpack_frame_header(&bad), Err(WireError::BadVersion(9)));
    }

    #[test]
    fn lanes_roundtrip_on_data_and_rts() {
        for lane in 0..crate::segment::NUM_LANES as u8 {
            let mut fb = FrameBuilder::new();
            fb.push_data_lane(Tag(1), SeqNo(0), lane, b"pay");
            fb.push_rts_lane(Tag(1), SeqNo(1), lane, 1 << 20);
            let mut fe = FrameEncoder::new();
            fe.push_data_lane(Tag(1), SeqNo(0), lane, b"pay");
            fe.push_rts_lane(Tag(1), SeqNo(1), lane, 1 << 20);
            let reference = fb.finish();
            let gathered: Vec<u8> = fe.finish().segments().concat();
            assert_eq!(gathered, reference, "lane {lane}: encoders must agree");
            let entries = parse_frame(&reference).unwrap();
            assert_eq!(
                entries,
                vec![
                    Entry::Data {
                        tag: Tag(1),
                        seq: SeqNo(0),
                        lane,
                        payload: b"pay"
                    },
                    Entry::Rts {
                        tag: Tag(1),
                        seq: SeqNo(1),
                        lane,
                        total: 1 << 20
                    },
                ]
            );
        }
    }

    #[test]
    fn default_pushes_ride_the_normal_lane() {
        let mut fb = FrameBuilder::new();
        fb.push_data(Tag(1), SeqNo(0), b"x");
        match parse_frame(&fb.finish()).unwrap()[0] {
            Entry::Data { lane, .. } => assert_eq!(Priority::from_lane(lane), Priority::Normal),
            ref e => panic!("wrong entry {e:?}"),
        }
    }

    #[test]
    fn last_chunk_flag_roundtrips() {
        for last in [false, true] {
            let mut fb = FrameBuilder::new();
            fb.push_rdv_data(Tag(1), SeqNo(1), 0, last, b"x");
            let frame = fb.finish();
            match parse_frame(&frame).unwrap()[0] {
                Entry::RdvData { last: l, .. } => assert_eq!(l, last),
                ref e => panic!("wrong entry {e:?}"),
            }
        }
    }
}
