//! Length-prefixed framing with per-frame CRCs and magic-based resync.
//!
//! A byte stream has no message boundaries, so the wire transport frames
//! every message:
//!
//! ```text
//! offset  size  field
//! 0       4     MAGIC  b"MxN1"
//! 4       1     kind   (Data | Heartbeat | Hello | Bye)
//! 5       3     reserved (zero)
//! 8       4     src    sender's global rank
//! 12      4     context
//! 16      4     tag    (i32)
//! 20      8     seq    per-link data sequence number
//! 28      4     codec  payload-type tag (see CodecRegistry)
//! 32      4     payload_len
//! 36      4     header CRC-32 over bytes 0..36
//! 40      n     payload bytes
//! 40+n    4     payload CRC-32
//! ```
//!
//! Two CRCs, not one: the header CRC lets the reader trust `payload_len`
//! before committing to read that many bytes (a corrupt length would
//! otherwise desynchronize the stream or allocate unboundedly), and the
//! payload CRC detects damage to the bytes themselves. When either check
//! fails the [`FrameReader`] *resynchronizes* by scanning for the next
//! `MAGIC`, so one damaged frame costs one frame — never the rest of the
//! stream, and never a panic.
//!
//! A data frame's payload lives in one buffer on either side. A sender
//! builds the frame in a [`FrameBuf`]: the codec appends the payload behind
//! a reserved header, and sealing writes the header and both CRCs in place.
//! A [`FrameReader`] reads an accepted frame's payload straight into the
//! buffer the decoded [`Frame`] then owns.

use crate::crc::crc32;

/// Frame delimiter; also the resync scan target after corruption.
pub const MAGIC: [u8; 4] = *b"MxN1";

/// Fixed frame header size, including the header CRC.
pub const HEADER_LEN: usize = 40;

/// Upper bound on a single frame's payload; a "length" beyond this is
/// treated as header corruption rather than honored.
pub const MAX_PAYLOAD: usize = 1 << 26; // 64 MiB

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum FrameKind {
    /// An application message: codec-encoded payload destined for a
    /// mailbox `(context, tag)` bucket.
    Data = 1,
    /// Link-level liveness beacon; carries no payload.
    Heartbeat = 2,
    /// Connection/session handshake. Payload is `(session, last_recv_seq)`
    /// — the receiver retransmits every retained data frame with a higher
    /// sequence number (session resume after reconnect).
    Hello = 3,
    /// Orderly goodbye: the peer is leaving on purpose, not crashing.
    Bye = 4,
    /// End-to-end progress fence. Payload is `(fence_seq, watermark)` where
    /// `watermark` is the highest data sequence number the *sender* has
    /// delivered from the receiver — i.e. proof of how far the receiver's
    /// outbound stream has actually progressed. Heartbeats only prove the
    /// socket is alive; fences prove the application on the far side is
    /// still consuming (a SIGSTOP'd peer keeps accepting connections but
    /// its watermark freezes).
    ProgressFence = 5,
}

impl FrameKind {
    fn from_u8(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Data),
            2 => Some(FrameKind::Heartbeat),
            3 => Some(FrameKind::Hello),
            4 => Some(FrameKind::Bye),
            5 => Some(FrameKind::ProgressFence),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame carries.
    pub kind: FrameKind,
    /// Sender's global rank.
    pub src: u32,
    /// Destination mailbox context (Data frames).
    pub context: u32,
    /// Destination mailbox tag (Data frames).
    pub tag: i32,
    /// Per-link data sequence number (0 for control frames).
    pub seq: u64,
    /// Codec tag of the payload encoding.
    pub codec: u32,
    /// Encoded payload bytes.
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free control frame.
    pub fn control(kind: FrameKind, src: u32) -> Self {
        Frame { kind, src, context: 0, tag: 0, seq: 0, codec: 0, payload: Vec::new() }
    }

    /// Serializes the frame, stamping both CRCs.
    pub fn encode(&self) -> Vec<u8> {
        FrameBuf::from_payload(&self.payload).seal(
            self.kind,
            self.src,
            self.context,
            self.tag,
            self.seq,
            self.codec,
        )
    }
}

/// One outgoing frame built in a single buffer: `HEADER_LEN` reserved
/// bytes, then the payload appended behind them. Sending it (see
/// [`LinkSender::send_data`](crate::link::LinkSender::send_data)) fills in
/// the header and appends the payload CRC without moving the payload.
#[derive(Debug)]
pub struct FrameBuf {
    bytes: Vec<u8>,
}

impl Default for FrameBuf {
    fn default() -> Self {
        FrameBuf { bytes: vec![0; HEADER_LEN] }
    }
}

impl FrameBuf {
    /// An empty payload behind a reserved header.
    pub fn new() -> Self {
        Self::default()
    }

    /// A buffer holding a copy of `payload`.
    pub fn from_payload(payload: &[u8]) -> Self {
        let mut bytes = Vec::with_capacity(HEADER_LEN + payload.len() + 4);
        bytes.resize(HEADER_LEN, 0);
        bytes.extend_from_slice(payload);
        FrameBuf { bytes }
    }

    /// The payload appended so far.
    pub fn payload(&self) -> &[u8] {
        &self.bytes[HEADER_LEN..]
    }

    /// The buffer the codec appends the payload to. Callers append only:
    /// the first `HEADER_LEN` bytes belong to [`FrameBuf::seal`].
    pub(crate) fn append_to(&mut self) -> &mut Vec<u8> {
        &mut self.bytes
    }

    /// Writes the header (with its CRC) into the reserved bytes, appends
    /// the payload CRC, and returns the finished frame. A payload longer
    /// than [`MAX_PAYLOAD`] yields a frame every reader rejects, so
    /// senders check the length first.
    pub(crate) fn seal(
        mut self,
        kind: FrameKind,
        src: u32,
        context: u32,
        tag: i32,
        seq: u64,
        codec: u32,
    ) -> Vec<u8> {
        let payload_len = self.bytes.len() - HEADER_LEN;
        let h = &mut self.bytes[..HEADER_LEN];
        h[0..4].copy_from_slice(&MAGIC);
        h[4..8].copy_from_slice(&[kind as u8, 0, 0, 0]);
        h[8..12].copy_from_slice(&src.to_le_bytes());
        h[12..16].copy_from_slice(&context.to_le_bytes());
        h[16..20].copy_from_slice(&tag.to_le_bytes());
        h[20..28].copy_from_slice(&seq.to_le_bytes());
        h[28..32].copy_from_slice(&codec.to_le_bytes());
        h[32..36].copy_from_slice(&u32::try_from(payload_len).unwrap_or(u32::MAX).to_le_bytes());
        let hcrc = crc32(&h[..36]);
        h[36..40].copy_from_slice(&hcrc.to_le_bytes());
        let pcrc = crc32(&self.bytes[HEADER_LEN..]);
        self.bytes.reserve_exact(4);
        self.bytes.extend_from_slice(&pcrc.to_le_bytes());
        self.bytes
    }
}

/// Routing metadata recovered from an intact header whose *payload* CRC
/// failed — enough to tell the destination mailbox "something for you was
/// damaged" so the receiver observes `Corrupt` instead of silence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorruptHeader {
    /// Sender's global rank.
    pub src: u32,
    /// Destination context.
    pub context: u32,
    /// Destination tag.
    pub tag: i32,
    /// Data sequence number.
    pub seq: u64,
}

/// A frame-level integrity failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Bytes were damaged. `skipped` counts the bytes discarded while
    /// resynchronizing; `header` is present when the header itself was
    /// intact (payload-CRC failure), letting the caller surface a
    /// routable corruption error.
    Corrupt {
        /// Bytes discarded to get back in sync.
        skipped: usize,
        /// The intact header, if only the payload was damaged.
        header: Option<CorruptHeader>,
        /// Which check failed.
        reason: &'static str,
    },
}

/// Incremental frame decoder over an arbitrary byte-chunk stream.
///
/// Feed it whatever `read` returned; it buffers partial frames and yields
/// complete ones. All corruption — bad magic, damaged headers, damaged
/// payloads, truncation mid-stream — surfaces as [`FrameError::Corrupt`]
/// followed by successful resync on the next intact frame.
#[derive(Default)]
pub struct FrameReader {
    /// Stream bytes no accepted header has claimed yet: scanned for the
    /// magic and parsed as headers. Empty while `body` is incomplete.
    buf: Vec<u8>,
    /// The frame whose header passed its CRC, gathering its payload.
    body: Option<Body>,
}

/// An accepted header and the payload bytes (then the payload CRC)
/// gathered for it so far, in the buffer the decoded frame will own.
struct Body {
    kind: FrameKind,
    codec: u32,
    header: CorruptHeader,
    /// Grows to `payload_len + 4` bytes, its capacity.
    bytes: Vec<u8>,
    payload_len: usize,
}

impl Body {
    fn missing(&self) -> usize {
        self.payload_len + 4 - self.bytes.len()
    }
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends raw bytes from the stream. Bytes of an accepted frame's
    /// payload go straight into the buffer the decoded frame will own.
    pub fn feed(&mut self, mut bytes: &[u8]) {
        if let Some(body) = &mut self.body {
            let n = body.missing().min(bytes.len());
            body.bytes.extend_from_slice(&bytes[..n]);
            bytes = &bytes[n..];
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes currently buffered (complete or partial frames).
    pub fn buffered(&self) -> usize {
        self.buf.len() + self.body.as_ref().map_or(0, |b| HEADER_LEN + b.bytes.len())
    }

    /// Scans to the next `MAGIC`, returning how many bytes were dropped.
    /// Keeps a possible magic prefix at the tail so a magic split across
    /// two `feed`s is not lost.
    fn resync(&mut self) -> usize {
        let n = self.buf.len();
        let mut i = 1; // byte 0 is known-bad when resync is called
        while i < n {
            let window = &self.buf[i..(i + 4).min(n)];
            if MAGIC.starts_with(window) || window == MAGIC {
                break;
            }
            i += 1;
        }
        self.buf.drain(..i);
        i
    }

    /// Pulls the next complete frame, a corruption report, or `None` when
    /// more bytes are needed.
    #[allow(clippy::should_implement_trait)] // pull-style API, deliberately not an Iterator
    pub fn next(&mut self) -> Option<Result<Frame, FrameError>> {
        if self.body.is_none() {
            if let Err(e) = self.accept_header()? {
                return Some(Err(e));
            }
        }
        if self.body.as_ref()?.missing() > 0 {
            return None;
        }
        let Body { kind, codec, header, mut bytes, payload_len } =
            self.body.take().expect("checked above");
        let stored_pcrc = read_u32(&bytes[payload_len..]);
        bytes.truncate(payload_len);
        if crc32(&bytes) != stored_pcrc {
            // Header was sound, so the whole (length-delimited) frame
            // is discarded in one step: stream stays in sync.
            return Some(Err(FrameError::Corrupt {
                skipped: HEADER_LEN + payload_len + 4,
                header: Some(header),
                reason: "damaged frame payload",
            }));
        }
        Some(Ok(Frame {
            kind,
            src: header.src,
            context: header.context,
            tag: header.tag,
            seq: header.seq,
            codec,
            payload: bytes,
        }))
    }

    /// Parses the header at the front of `buf` and starts its body, moving
    /// any payload bytes already buffered into it. `None` when more bytes
    /// are needed; `Some(Err)` reports bytes dropped while resyncing.
    fn accept_header(&mut self) -> Option<Result<(), FrameError>> {
        if self.buf.len() < 4 {
            // A partial magic prefix stays buffered; junk is dropped.
            if !MAGIC.starts_with(&self.buf) {
                let skipped = self.resync();
                if skipped > 0 {
                    return Some(Err(FrameError::Corrupt {
                        skipped,
                        header: None,
                        reason: "garbage before frame magic",
                    }));
                }
            }
            return None;
        }
        if self.buf[..4] != MAGIC {
            let skipped = self.resync();
            return Some(Err(FrameError::Corrupt {
                skipped,
                header: None,
                reason: "garbage before frame magic",
            }));
        }
        if self.buf.len() < HEADER_LEN {
            return None;
        }
        let stored_hcrc = read_u32(&self.buf[36..40]);
        let payload_len = read_u32(&self.buf[32..36]) as usize;
        let kind = match FrameKind::from_u8(self.buf[4]) {
            Some(kind) if crc32(&self.buf[..36]) == stored_hcrc && payload_len <= MAX_PAYLOAD => {
                kind
            }
            _ => {
                // The "magic" was a lie (or the header was hit): drop one
                // byte and rescan so a real frame hiding behind it is found.
                self.buf.drain(..1);
                let skipped = 1 + self.resync();
                return Some(Err(FrameError::Corrupt {
                    skipped,
                    header: None,
                    reason: "damaged frame header",
                }));
            }
        };
        let header = CorruptHeader {
            src: read_u32(&self.buf[8..12]),
            context: read_u32(&self.buf[12..16]),
            tag: read_u32(&self.buf[16..20]) as i32,
            seq: read_u64(&self.buf[20..28]),
        };
        let codec = read_u32(&self.buf[28..32]);
        let total = HEADER_LEN + payload_len + 4;
        let bytes = if self.buf.len() == total {
            // The buffer holds exactly this frame: it becomes the payload.
            let mut bytes = std::mem::take(&mut self.buf);
            bytes.drain(..HEADER_LEN);
            bytes
        } else {
            let end = self.buf.len().min(total);
            let mut bytes = Vec::with_capacity(payload_len + 4);
            bytes.extend_from_slice(&self.buf[HEADER_LEN..end]);
            self.buf.drain(..end);
            bytes
        };
        self.body = Some(Body { kind, codec, header, bytes, payload_len });
        Some(Ok(()))
    }
}

fn read_u32(b: &[u8]) -> u32 {
    u32::from_le_bytes(b[..4].try_into().expect("4-byte slice"))
}

fn read_u64(b: &[u8]) -> u64 {
    u64::from_le_bytes(b[..8].try_into().expect("8-byte slice"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn data_frame(seq: u64, payload: &[u8]) -> Frame {
        Frame {
            kind: FrameKind::Data,
            src: 2,
            context: 7,
            tag: 0x5252,
            seq,
            codec: 15,
            payload: payload.to_vec(),
        }
    }

    #[test]
    fn roundtrip_through_reader() {
        let f = data_frame(9, b"hello");
        let mut r = FrameReader::new();
        r.feed(&f.encode());
        assert_eq!(r.next(), Some(Ok(f)));
        assert_eq!(r.next(), None);
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn byte_at_a_time_feeding() {
        let frames: Vec<Frame> = (0..3).map(|i| data_frame(i, &[i as u8; 5])).collect();
        let bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for b in bytes {
            r.feed(&[b]);
            while let Some(res) = r.next() {
                got.push(res.unwrap());
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn chunked_feeding_fills_payloads_across_frames() {
        let big: Vec<u8> = (0..5000u32).map(|i| (i * 7) as u8).collect();
        let frames = [data_frame(1, b"a"), data_frame(2, &big), data_frame(3, b"tail")];
        let mut bytes: Vec<u8> = frames.iter().flat_map(|f| f.encode()).collect();
        let big_payload = frames[0].encode().len() + HEADER_LEN;
        bytes[big_payload + 100] ^= 1;
        let mut r = FrameReader::new();
        let mut got = Vec::new();
        for chunk in bytes.chunks(7) {
            r.feed(chunk);
            while let Some(res) = r.next() {
                got.push(res);
            }
        }
        assert_eq!(got.len(), 3);
        assert_eq!(got[0], Ok(frames[0].clone()));
        assert!(matches!(&got[1], Err(FrameError::Corrupt { header: Some(h), .. }) if h.seq == 2));
        assert_eq!(got[2], Ok(frames[2].clone()));
        assert_eq!(r.buffered(), 0);
    }

    #[test]
    fn payload_bit_flip_reports_corrupt_with_header_and_resyncs() {
        let a = data_frame(1, b"aaaa");
        let b = data_frame(2, b"bbbb");
        let mut bytes = a.encode();
        bytes[HEADER_LEN + 1] ^= 0x10; // damage a payload byte of `a`
        bytes.extend_from_slice(&b.encode());
        let mut r = FrameReader::new();
        r.feed(&bytes);
        match r.next() {
            Some(Err(FrameError::Corrupt { header: Some(h), reason, .. })) => {
                assert_eq!(h.seq, 1);
                assert_eq!(h.context, 7);
                assert_eq!(reason, "damaged frame payload");
            }
            other => panic!("expected payload corruption, got {other:?}"),
        }
        assert_eq!(r.next(), Some(Ok(b)), "stream resynced on the very next frame");
    }

    #[test]
    fn header_bit_flip_resyncs_to_next_frame() {
        let a = data_frame(1, b"aaaa");
        let b = data_frame(2, b"bbbb");
        let mut bytes = a.encode();
        bytes[20] ^= 0x01; // damage seq inside the protected header
        bytes.extend_from_slice(&b.encode());
        let mut r = FrameReader::new();
        r.feed(&bytes);
        let mut corrupt = 0;
        let mut good = Vec::new();
        while let Some(res) = r.next() {
            match res {
                Ok(f) => good.push(f),
                Err(FrameError::Corrupt { .. }) => corrupt += 1,
            }
        }
        assert!(corrupt >= 1, "header damage must be reported");
        assert_eq!(good, vec![b], "the frame after the damaged one survives");
    }

    #[test]
    fn leading_garbage_is_skipped() {
        let f = data_frame(3, b"x");
        let mut r = FrameReader::new();
        r.feed(b"NOISEnoiseNOISE");
        r.feed(&f.encode());
        let mut good = None;
        while let Some(res) = r.next() {
            if let Ok(frame) = res {
                good = Some(frame);
            }
        }
        assert_eq!(good, Some(f));
    }

    #[test]
    fn absurd_length_is_header_corruption_not_allocation() {
        let f = data_frame(1, b"ok");
        let mut bytes = f.encode();
        bytes[32..36].copy_from_slice(&u32::MAX.to_le_bytes()); // forge payload_len
        let mut r = FrameReader::new();
        r.feed(&bytes);
        assert!(matches!(r.next(), Some(Err(FrameError::Corrupt { .. }))));
    }

    #[test]
    fn truncated_final_frame_stays_pending_not_corrupt() {
        let f = data_frame(1, b"pppp");
        let bytes = f.encode();
        let mut r = FrameReader::new();
        r.feed(&bytes[..bytes.len() - 3]);
        assert_eq!(r.next(), None, "incomplete frame waits for more bytes");
        r.feed(&bytes[bytes.len() - 3..]);
        assert_eq!(r.next(), Some(Ok(f)));
    }

    /// Frames as the original byte-at-a-time encoder wrote them: a data
    /// frame long enough for the folding CRC path, and a `Hello`.
    const PINNED_DATA: [u8; 144] = [
        0x4d, 0x78, 0x4e, 0x31, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00,
        0x00, 0xfe, 0xff, 0xff, 0xff, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, 0x00, 0x00, 0x0f, 0x00,
        0x00, 0x00, 0x64, 0x00, 0x00, 0x00, 0xc0, 0x80, 0x9a, 0x9c, 0x0c, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x10, 0xc0, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0xc0,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xf0, 0xbf, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0,
        0x3f, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x0c, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x14, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x1a, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x20, 0x40, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x23, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x26, 0x40, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x29, 0x40, 0x36, 0x1b, 0x34, 0xcc,
    ];
    const PINNED_HELLO: [u8; 60] = [
        0x4d, 0x78, 0x4e, 0x31, 0x03, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x10, 0x00, 0x00, 0x00, 0x2e, 0x4f, 0xd9, 0xd7, 0xed, 0xfe, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x0c, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x52, 0x4e, 0x4a, 0x72,
    ];

    #[test]
    fn pinned_frames_decode_and_reencode_byte_identically() {
        let values: Vec<f64> = (0..12).map(|i| i as f64 * 1.5 - 4.0).collect();
        let mut r = FrameReader::new();
        r.feed(&PINNED_DATA);
        r.feed(&PINNED_HELLO);
        let data = r.next().unwrap().expect("pinned data frame decodes");
        assert_eq!(
            (data.kind, data.src, data.context, data.tag, data.seq, data.codec),
            (FrameKind::Data, 3, 7, -2, 0x0102_0304_0506, 15)
        );
        assert_eq!(crate::codec::decode_value::<Vec<f64>>(&data.payload).unwrap(), values);
        assert_eq!(data.encode(), PINNED_DATA);
        let hello = r.next().unwrap().expect("pinned hello decodes");
        assert_eq!(crate::codec::decode_value::<(u64, u64)>(&hello.payload).unwrap(), (0xfeed, 12));
        assert_eq!(hello.encode(), PINNED_HELLO);
        assert_eq!(r.next(), None);
    }

    #[test]
    fn control_frames_are_payload_free() {
        let hb = Frame::control(FrameKind::Heartbeat, 4);
        let mut r = FrameReader::new();
        r.feed(&hb.encode());
        let got = r.next().unwrap().unwrap();
        assert_eq!(got.kind, FrameKind::Heartbeat);
        assert_eq!(got.src, 4);
        assert!(got.payload.is_empty());
    }
}
