//! The one byte codec behind every persisted format and the wire payload.
//!
//! [`Enc`] writes little-endian scalars, length-prefixed slices and
//! strings; [`Dec`] reads them back through a bounds-checked cursor, so a
//! short or hostile buffer is a typed [`CodecError`], never a panic or an
//! allocation sized by an unchecked count.
//!
//! Every checkpoint format shares one checksummed frame:
//!
//! ```text
//! magic[4] | version u32 | crc32 u32 | payload
//! ```
//!
//! The CRC32 covers the payload and is absent from versions older than
//! [`Frame::crc_since`]. [`seal`] writes a frame around a payload and
//! [`open`] checks magic, version and CRC before handing out a cursor over
//! the payload. The four formats are the [`Frame`] constants below; the
//! wire protocol uses [`Enc`]/[`Dec`] for its payloads only (its frame
//! header is a separate, network-only layout).

use std::fmt;

use crate::serialize::crc32;

/// Bytes in a CRC-carrying frame header (magic, version, CRC).
pub const HEADER_LEN: usize = 12;

/// One checkpoint format: its magic, the version writers emit, and the
/// first version whose header carries a CRC. Readers accept every
/// version from 1 up to [`Frame::version`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Frame {
    /// The four leading bytes.
    pub magic: [u8; 4],
    /// Current (written) version.
    pub version: u32,
    /// First version with a CRC32 after the version field.
    pub crc_since: u32,
    /// Human-readable name used in error messages.
    pub what: &'static str,
}

/// Model weights (`imdiff_nn::serialize`, `ImDiffusionDetector::save`).
pub const IMDF: Frame = Frame {
    magic: *b"IMDF",
    version: 2,
    crc_since: 2,
    what: "IMDF checkpoint",
};

/// Streaming-monitor sidecar (`StreamingMonitor::checkpoint_stream`).
pub const IMSM: Frame = Frame {
    magic: *b"IMSM",
    version: 3,
    crc_since: 2,
    what: "IMSM stream checkpoint",
};

/// Trainer state (`Trainer` step checkpoints).
pub const IMTS: Frame = Frame {
    magic: *b"IMTS",
    version: 2,
    crc_since: 1,
    what: "IMTS training checkpoint",
};

/// Detector-registry envelope (`AnyDetector::save`).
pub const IMDE: Frame = Frame {
    magic: *b"IMDE",
    version: 1,
    crc_since: 1,
    what: "IMDE registry envelope",
};

/// Why a frame or payload did not decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The bytes ended before a read completed.
    Truncated,
    /// The leading bytes are not the expected frame's magic.
    BadMagic(&'static str),
    /// The version is 0 or newer than this build writes.
    Unsupported {
        /// Frame name.
        what: &'static str,
        /// Version found in the header.
        version: u32,
    },
    /// The payload does not match the header's CRC32.
    CrcMismatch {
        /// Frame name.
        what: &'static str,
        /// Checksum stored in the header.
        stored: u32,
        /// Checksum of the bytes present.
        actual: u32,
    },
    /// A count whose elements cannot fit in the remaining bytes.
    Oversized {
        /// Claimed element count.
        count: usize,
        /// Bytes per element.
        elem: usize,
        /// Bytes left in the buffer.
        left: usize,
    },
    /// Bytes remained after a fully decoded payload.
    Trailing(usize),
    /// A string field is not UTF-8.
    NotUtf8,
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "input ended early"),
            CodecError::BadMagic(what) => write!(f, "not an {what}"),
            CodecError::Unsupported { what, version } => {
                write!(f, "unsupported {what} version {version}")
            }
            CodecError::CrcMismatch {
                what,
                stored,
                actual,
            } => write!(
                f,
                "{what} CRC mismatch: header {stored:#010x}, payload {actual:#010x}"
            ),
            CodecError::Oversized { count, elem, left } => write!(
                f,
                "count {count} of {elem}-byte elements exceeds the {left} bytes left"
            ),
            CodecError::Trailing(n) => write!(f, "{n} unexpected bytes after payload"),
            CodecError::NotUtf8 => write!(f, "string is not UTF-8"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Little-endian byte writer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// An empty writer.
    pub fn new() -> Enc {
        Enc::default()
    }

    /// The written bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Appends raw bytes, without a length prefix.
    #[inline]
    pub fn raw(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    #[inline]
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    #[inline]
    pub fn u16(&mut self, v: u16) {
        self.raw(&v.to_le_bytes());
    }

    #[inline]
    pub fn u32(&mut self, v: u32) {
        self.raw(&v.to_le_bytes());
    }

    #[inline]
    pub fn u64(&mut self, v: u64) {
        self.raw(&v.to_le_bytes());
    }

    #[inline]
    pub fn f32(&mut self, v: f32) {
        self.raw(&v.to_le_bytes());
    }

    #[inline]
    pub fn f64(&mut self, v: f64) {
        self.raw(&v.to_le_bytes());
    }

    /// A `u32` element count, then the values.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f32(v);
        }
    }

    /// A `u32` element count, then the values.
    pub fn f64s(&mut self, vs: &[f64]) {
        self.u32(vs.len() as u32);
        for &v in vs {
            self.f64(v);
        }
    }

    /// A `u32` byte count, then the bytes.
    pub fn bytes(&mut self, b: &[u8]) {
        self.u32(b.len() as u32);
        self.raw(b);
    }

    /// A `u16` byte count, then the UTF-8 bytes.
    ///
    /// # Panics
    /// Panics when `s` is longer than `u16::MAX` bytes.
    pub fn str16(&mut self, s: &str) {
        assert!(
            s.len() <= u16::MAX as usize,
            "string too long for u16 prefix"
        );
        self.u16(s.len() as u16);
        self.raw(s.as_bytes());
    }

    /// A `u32` byte count, then the UTF-8 bytes.
    pub fn str32(&mut self, s: &str) {
        self.bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian cursor.
#[derive(Debug, Clone)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// A cursor at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    /// The unread remainder.
    #[inline]
    pub fn rest(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// Rejects unread bytes.
    pub fn finish(&self) -> Result<(), CodecError> {
        match self.buf.len() - self.pos {
            0 => Ok(()),
            n => Err(CodecError::Trailing(n)),
        }
    }

    /// The next `n` bytes.
    #[inline]
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if n > self.buf.len() - self.pos {
            return Err(CodecError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    #[inline]
    fn array<const N: usize>(&mut self) -> Result<[u8; N], CodecError> {
        Ok(self.take(N)?.try_into().expect("take returned N bytes"))
    }

    #[inline]
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    #[inline]
    pub fn u16(&mut self) -> Result<u16, CodecError> {
        self.array().map(u16::from_le_bytes)
    }

    #[inline]
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        self.array().map(u32::from_le_bytes)
    }

    #[inline]
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        self.array().map(u64::from_le_bytes)
    }

    #[inline]
    pub fn f32(&mut self) -> Result<f32, CodecError> {
        self.array().map(f32::from_le_bytes)
    }

    #[inline]
    pub fn f64(&mut self) -> Result<f64, CodecError> {
        self.array().map(f64::from_le_bytes)
    }

    /// Checks that `count` elements of `elem` bytes each fit in the
    /// unread bytes, so the caller may allocate for them.
    pub fn fits(&self, count: usize, elem: usize) -> Result<usize, CodecError> {
        let left = self.buf.len() - self.pos;
        if count.checked_mul(elem).is_none_or(|n| n > left) {
            return Err(CodecError::Oversized { count, elem, left });
        }
        Ok(count)
    }

    /// A `u32` element count, checked by [`Dec::fits`] against the bytes
    /// that follow it.
    pub fn count(&mut self, elem: usize) -> Result<usize, CodecError> {
        let n = self.u32()? as usize;
        self.fits(n, elem)
    }

    /// `n` values, bounds-checked before allocating.
    pub fn f32s_n(&mut self, n: usize) -> Result<Vec<f32>, CodecError> {
        let bytes = self.take(self.fits(n, 4)? * 4)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
            .collect())
    }

    /// A `u32` element count, then the values (see [`Enc::f32s`]).
    pub fn f32s(&mut self) -> Result<Vec<f32>, CodecError> {
        let n = self.count(4)?;
        self.f32s_n(n)
    }

    /// A `u32` element count, then the values (see [`Enc::f64s`]).
    pub fn f64s(&mut self) -> Result<Vec<f64>, CodecError> {
        let n = self.count(8)?;
        (0..n).map(|_| self.f64()).collect()
    }

    /// A `u32` byte count, then the bytes.
    pub fn bytes(&mut self) -> Result<&'a [u8], CodecError> {
        let n = self.count(1)?;
        self.take(n)
    }

    /// A `u16` byte count, then UTF-8 bytes.
    pub fn str16(&mut self) -> Result<&'a str, CodecError> {
        let n = self.u16()? as usize;
        utf8(self.take(n)?)
    }

    /// A `u32` byte count, then UTF-8 bytes.
    pub fn str32(&mut self) -> Result<&'a str, CodecError> {
        utf8(self.bytes()?)
    }
}

fn utf8(b: &[u8]) -> Result<&str, CodecError> {
    std::str::from_utf8(b).map_err(|_| CodecError::NotUtf8)
}

/// Builds a `frame` image at its current version: `payload` writes the
/// payload after a reserved header, which is then filled in place.
pub fn seal(frame: &Frame, payload: impl FnOnce(&mut Enc)) -> Vec<u8> {
    let mut e = Enc {
        buf: vec![0; HEADER_LEN],
    };
    payload(&mut e);
    let mut buf = e.buf;
    let crc = crc32(&buf[HEADER_LEN..]);
    buf[0..4].copy_from_slice(&frame.magic);
    buf[4..8].copy_from_slice(&frame.version.to_le_bytes());
    buf[8..12].copy_from_slice(&crc.to_le_bytes());
    buf
}

/// Checks a `frame` image's magic, version and (from
/// [`Frame::crc_since`] on) CRC, and returns the version with a cursor
/// at the start of the payload. No payload byte is read before the CRC
/// holds.
pub fn open<'a>(frame: &Frame, bytes: &'a [u8]) -> Result<(u32, Dec<'a>), CodecError> {
    let mut d = Dec::new(bytes);
    if d.take(4)? != frame.magic {
        return Err(CodecError::BadMagic(frame.what));
    }
    let version = d.u32()?;
    if version == 0 || version > frame.version {
        return Err(CodecError::Unsupported {
            what: frame.what,
            version,
        });
    }
    if version >= frame.crc_since {
        let stored = d.u32()?;
        let actual = crc32(d.rest());
        if stored != actual {
            return Err(CodecError::CrcMismatch {
                what: frame.what,
                stored,
                actual,
            });
        }
    }
    Ok((version, d))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_slices_and_strings_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u16(0xBEEF);
        e.u32(u32::MAX);
        e.u64(1 << 40);
        e.f32(-1.5);
        e.f64(f64::MIN_POSITIVE);
        e.f32s(&[1.0, f32::NAN]);
        e.f64s(&[2.0]);
        e.str16("tenant");
        e.str32("message");
        e.bytes(b"xy");
        let bytes = e.into_vec();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), u32::MAX);
        assert_eq!(d.u64().unwrap(), 1 << 40);
        assert_eq!(d.f32().unwrap(), -1.5);
        assert_eq!(d.f64().unwrap(), f64::MIN_POSITIVE);
        let fs = d.f32s().unwrap();
        assert_eq!(fs[0], 1.0);
        assert!(fs[1].is_nan());
        assert_eq!(d.f64s().unwrap(), vec![2.0]);
        assert_eq!(d.str16().unwrap(), "tenant");
        assert_eq!(d.str32().unwrap(), "message");
        assert_eq!(d.bytes().unwrap(), b"xy");
        d.finish().unwrap();
        assert_eq!(d.u8(), Err(CodecError::Truncated));
    }

    #[test]
    fn counts_that_cannot_fit_are_rejected_before_allocation() {
        let mut e = Enc::new();
        e.u32(u32::MAX);
        e.u32(0);
        let bytes = e.into_vec();
        assert!(matches!(
            Dec::new(&bytes).f32s(),
            Err(CodecError::Oversized { count, elem: 4, left: 4 }) if count == u32::MAX as usize
        ));
        assert!(matches!(
            Dec::new(&bytes).fits(usize::MAX, 2),
            Err(CodecError::Oversized { .. })
        ));
        // Zero-sized elements always fit.
        assert_eq!(Dec::new(&bytes).count(0), Ok(u32::MAX as usize));
    }

    #[test]
    fn trailing_bytes_and_bad_utf8_are_typed() {
        let d = Dec::new(b"abc");
        assert_eq!(d.finish(), Err(CodecError::Trailing(3)));
        let mut e = Enc::new();
        e.u16(2);
        e.raw(&[0xFF, 0xFE]);
        let bytes = e.into_vec();
        assert_eq!(Dec::new(&bytes).str16(), Err(CodecError::NotUtf8));
    }

    #[test]
    fn seal_then_open_checks_magic_version_and_crc() {
        let image = seal(&IMSM, |e| e.u32(42));
        assert_eq!(&image[..4], b"IMSM");
        assert_eq!(image.len(), HEADER_LEN + 4);
        let (version, mut d) = open(&IMSM, &image).unwrap();
        assert_eq!(version, 3);
        assert_eq!(d.u32().unwrap(), 42);

        assert_eq!(
            open(&IMDF, &image).unwrap_err(),
            CodecError::BadMagic("IMDF checkpoint")
        );
        let mut future = image.clone();
        future[4] = 4;
        assert!(matches!(
            open(&IMSM, &future),
            Err(CodecError::Unsupported { version: 4, .. })
        ));
        let mut flipped = image.clone();
        flipped[HEADER_LEN] ^= 1;
        assert!(matches!(
            open(&IMSM, &flipped),
            Err(CodecError::CrcMismatch { .. })
        ));
        assert_eq!(open(&IMSM, &image[..7]).unwrap_err(), CodecError::Truncated);

        // A version below `crc_since` has no CRC field.
        let mut v1 = b"IMSM".to_vec();
        v1.extend_from_slice(&1u32.to_le_bytes());
        v1.extend_from_slice(&42u32.to_le_bytes());
        let (version, mut d) = open(&IMSM, &v1).unwrap();
        assert_eq!((version, d.u32().unwrap()), (1, 42));
    }
}
