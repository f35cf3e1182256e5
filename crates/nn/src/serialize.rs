//! Model checkpointing: save/load parameter lists as `IMDF` images.
//!
//! Every [`crate::layers::Module`] exposes its parameters in a stable
//! order, so a checkpoint is just that ordered list of tensors in an
//! [`IMDF`] frame (see [`crate::codec`]). The payload is the tensor count,
//! then per tensor its rank, dims and little-endian `f32` data; shapes are
//! checked against the model on load. Version 1 files (no CRC) are still
//! readable. All writers in this module go through [`atomic_write`] —
//! temp file plus atomic rename — so a crash mid-write leaves either the
//! old checkpoint or none, never a half-written one.

use std::fs;
use std::io::Write;
use std::path::Path;

use crate::codec::{open, seal, Dec, IMDF};
use crate::{NnError, Result, Tensor};

/// CRC32 (IEEE 802.3, polynomial `0xEDB88320`) lookup table, built at
/// compile time.
const CRC_TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// CRC32 (IEEE) of a byte slice — the integrity check used by every
/// checkpoint format in the workspace (IMDF v2, IMSM v2, IMTS).
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_finish(crc32_update(CRC32_INIT, bytes))
}

/// Initial state for the streaming form of [`crc32`]: feed chunks
/// through [`crc32_update`] and close with [`crc32_finish`]. Lets
/// callers checksum logically concatenated buffers (e.g. a frame header
/// followed by a borrowed payload slice) without materialising the
/// concatenation.
pub const CRC32_INIT: u32 = 0xFFFF_FFFF;

/// Folds `bytes` into a streaming CRC32 `state` (see [`CRC32_INIT`]).
pub fn crc32_update(mut state: u32, bytes: &[u8]) -> u32 {
    for &b in bytes {
        state = CRC_TABLE[((state ^ b as u32) & 0xFF) as usize] ^ (state >> 8);
    }
    state
}

/// Finalizes a streaming CRC32 `state` into the checksum value.
pub fn crc32_finish(state: u32) -> u32 {
    !state
}

/// Writes `bytes` to `path` atomically: the payload goes to a sibling
/// temp file which is then renamed over the target, so readers never see
/// a partially written checkpoint. Creates parent directories as needed.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(format!(".tmp.{}", std::process::id()));
    let tmp = std::path::PathBuf::from(tmp);
    let result = (|| {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
        fs::rename(&tmp, path)
    })();
    if result.is_err() {
        fs::remove_file(&tmp).ok();
    }
    result
}

/// The `IMDF` image of a parameter list.
pub fn params_image(params: &[Tensor]) -> Vec<u8> {
    seal(&IMDF, |e| {
        e.u32(params.len() as u32);
        for p in params {
            let dims = p.dims();
            e.u32(dims.len() as u32);
            for &d in dims {
                e.u32(d as u32);
            }
            for &v in p.data().iter() {
                e.f32(v);
            }
        }
    })
}

/// Saves a parameter list to a file (atomic write).
pub fn save_params(path: &Path, params: &[Tensor]) -> std::io::Result<()> {
    atomic_write(path, &params_image(params))
}

/// Loads a checkpoint *into* an existing parameter list (e.g. a freshly
/// constructed model), verifying integrity, count and shapes.
///
/// Error taxonomy: [`NnError::Io`] when the file cannot be read,
/// [`NnError::Corrupt`] when it is damaged (bad magic, unsupported
/// version, CRC mismatch, truncation), and [`NnError::InvalidArgument`]
/// when it is intact but belongs to a different architecture — a
/// checkpoint must never be silently truncated into a model.
pub fn load_params_into(path: &Path, params: &[Tensor]) -> Result<()> {
    let bytes = fs::read(path)
        .map_err(|e| NnError::Io(format!("cannot read {}: {e}", path.display())))?;
    let (_, mut d) = open(&IMDF, &bytes)?;
    read_params(&mut d, params)
}

/// Reads an opened `IMDF` payload into `params`, to its last byte. Split
/// from [`load_params_into`] for images that travel inside another
/// container (the registry envelope) and for callers that peek at the
/// tensor count first. Same error taxonomy.
pub fn read_params(d: &mut Dec, params: &[Tensor]) -> Result<()> {
    let count = d.u32()? as usize;
    if count != params.len() {
        return Err(NnError::InvalidArgument(format!(
            "checkpoint has {count} tensors, model expects {}",
            params.len()
        )));
    }
    for (i, p) in params.iter().enumerate() {
        let ndim = d.count(4)?;
        let dims = (0..ndim)
            .map(|_| d.u32().map(|v| v as usize))
            .collect::<std::result::Result<Vec<_>, _>>()?;
        if dims != p.dims() {
            return Err(NnError::InvalidArgument(format!(
                "tensor {i}: checkpoint shape {dims:?} != model shape {:?}",
                p.dims()
            )));
        }
        p.set_data(&d.f32s_n(p.numel())?);
    }
    Ok(d.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Linear, Module};
    use crate::rng::seeded;

    fn tmp(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("imdf-{}-{name}", std::process::id()))
    }

    /// Writes the pre-CRC v1 layout, as older deployments produced it.
    fn save_params_v1(path: &Path, params: &[Tensor]) {
        let image = params_image(params);
        let mut buf = b"IMDF".to_vec();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&image[crate::codec::HEADER_LEN..]);
        std::fs::write(path, buf).unwrap();
    }

    #[test]
    fn crc32_matches_reference_vector() {
        // The canonical IEEE check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn roundtrip_restores_values() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let path = tmp("roundtrip.bin");
        save_params(&path, &l1.params()).unwrap();

        let l2 = Linear::new(&mut seeded(99), 4, 3);
        assert_ne!(l1.params()[0].to_vec(), l2.params()[0].to_vec());
        load_params_into(&path, &l2.params()).unwrap();
        for (a, b) in l1.params().iter().zip(l2.params().iter()) {
            assert_eq!(a.to_vec(), b.to_vec());
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn v1_checkpoints_still_load() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let path = tmp("v1.bin");
        save_params_v1(&path, &l1.params());
        let l2 = Linear::new(&mut seeded(99), 4, 3);
        load_params_into(&path, &l2.params()).unwrap();
        assert_eq!(l1.params()[0].to_vec(), l2.params()[0].to_vec());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn bit_flip_is_corrupt_not_weights() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let path = tmp("bitflip.bin");
        save_params(&path, &l1.params()).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = bytes.len() - 5; // inside tensor data
        bytes[victim] ^= 0x10;
        std::fs::write(&path, bytes).unwrap();
        let l2 = Linear::new(&mut seeded(99), 4, 3);
        assert!(matches!(
            load_params_into(&path, &l2.params()),
            Err(NnError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncation_is_corrupt() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let path = tmp("trunc.bin");
        save_params(&path, &l1.params()).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        assert!(matches!(
            load_params_into(&path, &l1.params()),
            Err(NnError::Corrupt(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_file_is_io() {
        let l = Linear::new(&mut seeded(1), 2, 2);
        assert!(matches!(
            load_params_into(&tmp("does-not-exist.bin"), &l.params()),
            Err(NnError::Io(_))
        ));
    }

    #[test]
    fn shape_mismatch_rejected() {
        let l1 = Linear::new(&mut seeded(1), 4, 3);
        let path = tmp("mismatch.bin");
        save_params(&path, &l1.params()).unwrap();
        let wrong = Linear::new(&mut seeded(2), 4, 5);
        assert!(matches!(
            load_params_into(&path, &wrong.params()),
            Err(NnError::InvalidArgument(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn count_mismatch_rejected() {
        let l1 = Linear::new(&mut seeded(1), 2, 2);
        let path = tmp("count.bin");
        save_params(&path, &l1.params()).unwrap();
        let one = &l1.params()[..1];
        assert!(matches!(
            load_params_into(&path, one),
            Err(NnError::InvalidArgument(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// A CRC-valid image whose tensor rank claims `u32::MAX` dims is
    /// corrupt, not an allocation of that many dims.
    #[test]
    fn oversized_rank_is_corrupt() {
        let l = Linear::new(&mut seeded(1), 2, 2);
        let image = crate::codec::seal(&IMDF, |e| {
            e.u32(l.params().len() as u32);
            e.u32(u32::MAX);
            e.u32(2);
        });
        let (_, mut d) = open(&IMDF, &image).unwrap();
        assert!(matches!(
            read_params(&mut d, &l.params()),
            Err(NnError::Corrupt(_))
        ));
    }

    #[test]
    fn garbage_rejected() {
        let path = tmp("garbage.bin");
        std::fs::write(&path, b"not a checkpoint").unwrap();
        let l = Linear::new(&mut seeded(1), 2, 2);
        let err = load_params_into(&path, &l.params()).unwrap_err();
        assert!(err.to_string().contains("IMDF"));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn atomic_write_leaves_no_temp_files() {
        let dir = std::env::temp_dir().join(format!("imdf-atomic-{}", std::process::id()));
        let path = dir.join("nested/out.bin");
        atomic_write(&path, b"payload").unwrap();
        assert_eq!(std::fs::read(&path).unwrap(), b"payload");
        let left: Vec<_> = std::fs::read_dir(path.parent().unwrap())
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(left.len(), 1, "temp files left behind: {left:?}");
        std::fs::remove_dir_all(&dir).ok();
    }
}
