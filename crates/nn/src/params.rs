//! Named parameter storage shared across forward passes, with a
//! CRC-checksummed binary serialization format and crash-consistent
//! (atomic write-tmp → fsync → rename) persistence for checkpointing.

use stod_faultline::codec::{self, Reader, Writer};
use stod_tensor::Tensor;

pub use stod_faultline::codec::StoreError;

/// Parameter-store magic.
const MAGIC: &[u8; 4] = b"STPW";
/// Parameter-store format version.
const VERSION: u32 = 2;
/// Largest rank a stored tensor may declare.
const MAX_RANK: usize = 8;
/// Largest element count a stored tensor may declare (1 GiB of f32).
const MAX_NUMEL: usize = 1 << 28;

/// Appends a tensor as rank `u32`, dims (`u64` each), then its f32 data —
/// the one tensor encoding parameter stores and optimizer state share.
pub(crate) fn put_tensor(w: &mut Writer, t: &Tensor) {
    w.u32(t.ndim() as u32);
    for &d in t.dims() {
        w.u64(d as u64);
    }
    w.f32s(t.data());
}

/// Reads a tensor written by [`put_tensor`]. Stored bytes are untrusted:
/// the rank and element count are capped and the dims product is
/// overflow-checked before anything is allocated.
pub(crate) fn read_tensor(r: &mut Reader<'_>) -> Result<Tensor, StoreError> {
    let rank = r.u32()? as usize;
    if rank > MAX_RANK {
        return Err(StoreError::Malformed(format!("tensor rank {rank}")));
    }
    let mut dims = Vec::with_capacity(rank);
    let mut numel = 1usize;
    for _ in 0..rank {
        let d = r.u64()?;
        numel = usize::try_from(d)
            .ok()
            .and_then(|d| numel.checked_mul(d))
            .ok_or_else(|| StoreError::Malformed(format!("tensor dims {dims:?} × {d} overflow")))?;
        dims.push(d as usize);
    }
    if numel > MAX_NUMEL {
        return Err(StoreError::Malformed(format!("tensor of {numel} elements")));
    }
    Ok(Tensor::from_vec(&dims, r.f32s(numel)?))
}

/// Handle to a parameter inside a [`ParamStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ParamId(pub(crate) usize);

impl ParamId {
    /// Raw index of the parameter inside its store.
    pub fn index(&self) -> usize {
        self.0
    }
}

/// A flat store of named parameter tensors.
///
/// Models register their weights here once; each training step reads the
/// current values through the tape and writes updates back through an
/// optimizer. Names must be unique — they key serialization.
#[derive(Clone, Default)]
pub struct ParamStore {
    names: Vec<String>,
    values: Vec<Tensor>,
}

impl ParamStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a parameter with a unique name and initial value.
    ///
    /// # Panics
    /// Panics on duplicate names.
    pub fn register(&mut self, name: impl Into<String>, value: Tensor) -> ParamId {
        let name = name.into();
        assert!(
            !self.names.contains(&name),
            "duplicate parameter name: {name}"
        );
        self.names.push(name);
        self.values.push(value);
        ParamId(self.values.len() - 1)
    }

    /// Number of registered parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no parameters are registered.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Total scalar weight count across all parameters (the paper's
    /// `#weights` column in Table I).
    pub fn num_weights(&self) -> usize {
        self.values.iter().map(Tensor::numel).sum()
    }

    /// Current value of a parameter.
    pub fn get(&self, id: ParamId) -> &Tensor {
        &self.values[id.0]
    }

    /// Mutable access to a parameter value.
    pub fn get_mut(&mut self, id: ParamId) -> &mut Tensor {
        &mut self.values[id.0]
    }

    /// Replaces a parameter value (shape must match).
    ///
    /// # Panics
    /// Panics if the new value's shape differs.
    pub fn set(&mut self, id: ParamId, value: Tensor) {
        assert_eq!(
            self.values[id.0].dims(),
            value.dims(),
            "parameter shape changed on set"
        );
        self.values[id.0] = value;
    }

    /// Name of a parameter.
    pub fn name(&self, id: ParamId) -> &str {
        &self.names[id.0]
    }

    /// Looks a parameter up by name.
    pub fn id_of(&self, name: &str) -> Option<ParamId> {
        self.names.iter().position(|n| n == name).map(ParamId)
    }

    /// Iterates over `(id, name, value)` triples.
    pub fn iter(&self) -> impl Iterator<Item = (ParamId, &str, &Tensor)> {
        self.names
            .iter()
            .zip(self.values.iter())
            .enumerate()
            .map(|(i, (n, v))| (ParamId(i), n.as_str(), v))
    }

    /// All parameter ids, in registration order.
    pub fn ids(&self) -> Vec<ParamId> {
        (0..self.values.len()).map(ParamId).collect()
    }

    /// Serializes all parameters (names, shapes, data) to bytes.
    ///
    /// Format version 2, in a [`codec`] envelope: magic `STPW`, version
    /// u32, count u32, then per parameter: name (u32 len + utf8), rank
    /// u32, dims (u64 each), f32 data (LE); finally a CRC-32 (IEEE)
    /// footer over everything before it.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::header(MAGIC, VERSION);
        w.u32(self.values.len() as u32);
        for (name, value) in self.names.iter().zip(&self.values) {
            w.u32(name.len() as u32);
            w.bytes(name.as_bytes());
            put_tensor(&mut w, value);
        }
        w.seal()
    }

    /// Deserializes a store written by [`ParamStore::to_bytes`].
    ///
    /// The CRC footer is verified before the payload is interpreted, so a
    /// bit-flip or truncation anywhere surfaces as
    /// [`StoreError::Checksum`], distinct from structurally invalid input
    /// ([`StoreError::Malformed`]), which includes any other format
    /// version.
    pub fn from_bytes(bytes: impl AsRef<[u8]>) -> Result<Self, StoreError> {
        let mut r = codec::open(bytes.as_ref(), MAGIC, VERSION)?;
        let count = r.u32()?;
        let mut store = ParamStore::new();
        for i in 0..count {
            let name_len = r.u32()? as usize;
            let name = std::str::from_utf8(r.take(name_len)?)
                .map_err(|_| StoreError::Malformed(format!("non-utf8 name of parameter {i}")))?;
            if store.id_of(name).is_some() {
                return Err(StoreError::Malformed(format!(
                    "duplicate parameter name '{name}'"
                )));
            }
            let value = read_tensor(&mut r)?;
            store.register(name, value);
        }
        r.finish()?;
        Ok(store)
    }

    /// Writes the store to a file crash-consistently: the bytes land in a
    /// temporary sibling, are fsync'd, and atomically renamed over `path`,
    /// so a failure mid-save (crash, full disk) leaves any previous
    /// checkpoint at `path` intact.
    pub fn save(&self, path: &std::path::Path) -> std::io::Result<()> {
        stod_faultline::io::atomic_write(path, &self.to_bytes())
    }

    /// Reads a store from a file written by [`ParamStore::save`].
    pub fn load(path: &std::path::Path) -> Result<Self, StoreError> {
        ParamStore::from_bytes(std::fs::read(path).map_err(StoreError::Io)?)
    }

    /// Copies all values from another store with identical layout.
    ///
    /// # Panics
    /// Panics when names or shapes disagree.
    pub fn copy_from(&mut self, other: &ParamStore) {
        assert_eq!(self.names, other.names, "parameter layout mismatch");
        for (dst, src) in self.values.iter_mut().zip(other.values.iter()) {
            assert_eq!(dst.dims(), src.dims(), "parameter shape mismatch");
            *dst = src.clone();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_lookup() {
        let mut s = ParamStore::new();
        let a = s.register("w", Tensor::zeros(&[2, 3]));
        let b = s.register("b", Tensor::ones(&[3]));
        assert_eq!(s.len(), 2);
        assert_eq!(s.num_weights(), 9);
        assert_eq!(s.name(a), "w");
        assert_eq!(s.id_of("b"), Some(b));
        assert_eq!(s.id_of("missing"), None);
    }

    #[test]
    #[should_panic(expected = "duplicate parameter name")]
    fn duplicate_name_panics() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::zeros(&[1]));
        s.register("w", Tensor::zeros(&[1]));
    }

    #[test]
    fn set_preserves_shape_contract() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.set(id, Tensor::from_vec(&[2], vec![1.0, 2.0]));
        assert_eq!(s.get(id).data(), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "shape changed")]
    fn set_wrong_shape_panics() {
        let mut s = ParamStore::new();
        let id = s.register("w", Tensor::zeros(&[2]));
        s.set(id, Tensor::zeros(&[3]));
    }

    #[test]
    fn serialization_roundtrip() {
        let mut s = ParamStore::new();
        s.register(
            "layer.weight",
            Tensor::from_vec(&[2, 2], vec![1.0, -2.0, 3.5, 0.0]),
        );
        s.register("layer.bias", Tensor::from_vec(&[2], vec![0.5, -0.5]));
        let bytes = s.to_bytes();
        let back = ParamStore::from_bytes(bytes).unwrap();
        assert_eq!(back.len(), 2);
        assert_eq!(back.name(ParamId(0)), "layer.weight");
        assert_eq!(back.get(ParamId(0)).data(), s.get(ParamId(0)).data());
        assert_eq!(back.get(ParamId(1)).dims(), &[2]);
    }

    #[test]
    fn corrupt_bytes_rejected() {
        assert!(matches!(
            ParamStore::from_bytes(b"nope"),
            Err(StoreError::Malformed(_))
        ));
        assert!(matches!(
            ParamStore::from_bytes(b"QQQQ\x02\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
            Err(StoreError::Malformed(_))
        ));
        // Unsupported version (with a plausible length).
        assert!(matches!(
            ParamStore::from_bytes(b"STPW\x63\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00\x00"),
            Err(StoreError::Malformed(_))
        ));
        // A CRC-valid version-3 store (the retired half-precision codec) is an
        // unsupported version, not a checksum failure.
        let mut v3 = Writer::header(MAGIC, 3);
        v3.u32(0);
        match ParamStore::from_bytes(v3.seal()).err() {
            Some(StoreError::Malformed(d)) => assert!(d.contains("unsupported format version 3")),
            other => panic!("a v3 store must be Malformed, got {other:?}"),
        }
        // A CRC-valid store whose dims product overflows `usize` must be
        // rejected before anything is allocated, not wrap around to a
        // tiny tensor (or panic in a debug build).
        let mut huge = Writer::header(MAGIC, VERSION);
        huge.u32(1);
        huge.u32(1);
        huge.bytes(b"w");
        huge.u32(2);
        huge.u64(1 << 32);
        huge.u64(1 << 32);
        assert!(matches!(
            ParamStore::from_bytes(huge.seal()),
            Err(StoreError::Malformed(_))
        ));
        // A CRC-valid store that names one parameter twice.
        let mut twice = Writer::header(MAGIC, VERSION);
        twice.u32(2);
        for _ in 0..2 {
            twice.u32(1);
            twice.bytes(b"w");
            put_tensor(&mut twice, &Tensor::ones(&[1]));
        }
        assert!(matches!(
            ParamStore::from_bytes(twice.seal()),
            Err(StoreError::Malformed(_))
        ));
        // Truncated payload: the CRC footer no longer matches.
        let mut s = ParamStore::new();
        s.register("w", Tensor::ones(&[4]));
        let full = s.to_bytes();
        assert!(matches!(
            ParamStore::from_bytes(&full[..full.len() - 3]),
            Err(StoreError::Checksum { .. })
        ));
    }

    #[test]
    fn bit_flip_yields_checksum_error_distinct_from_layout_damage() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]));
        let clean = s.to_bytes();
        // Flip one bit in every byte position of the body in turn; each
        // must be caught by the checksum, never panic, never parse.
        for pos in 8..clean.len() - 4 {
            let mut bad = clean.clone();
            bad[pos] ^= 0x10;
            match ParamStore::from_bytes(bad) {
                Err(StoreError::Checksum { expected, found }) => assert_ne!(expected, found),
                Err(other) => panic!("flip at {pos}: expected checksum error, got {other}"),
                Ok(_) => panic!("flip at {pos} parsed successfully"),
            }
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut s = ParamStore::new();
        s.register("w", Tensor::ones(&[4]));
        let mut padded = s.to_bytes();
        padded.push(0);
        assert!(
            ParamStore::from_bytes(padded).is_err(),
            "payload followed by garbage must not deserialize"
        );
    }

    /// This test's own scratch directory, removed on drop unless the
    /// thread is panicking, so a failed test keeps its files.
    struct TmpDir(std::path::PathBuf);

    impl TmpDir {
        fn new(test: &str) -> TmpDir {
            let dir =
                std::env::temp_dir().join(format!("stod_params_{}_{test}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            TmpDir(dir)
        }
    }

    impl Drop for TmpDir {
        fn drop(&mut self) {
            if !std::thread::panicking() {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
    }

    #[test]
    fn save_is_atomic_under_injected_faults() {
        let dir = TmpDir::new("save_is_atomic");
        let path = dir.0.join("w.stpw");

        let mut old = ParamStore::new();
        old.register("w", Tensor::from_vec(&[2], vec![1.0, 2.0]));
        old.save(&path).unwrap();
        let old_bytes = std::fs::read(&path).unwrap();

        let mut new = ParamStore::new();
        new.register("w", Tensor::from_vec(&[2], vec![9.0, 9.0]));

        use stod_faultline::{install, FaultPlan, FaultSite};
        {
            let _g = install(FaultPlan::new(4).with(FaultSite::SaveInterrupt, 1.0, 0));
            let err = new.save(&path).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::Interrupted);
        }
        assert_eq!(
            std::fs::read(&path).unwrap(),
            old_bytes,
            "interrupted save must leave the previous checkpoint bitwise intact"
        );
        {
            let _g = install(FaultPlan::new(4).with(FaultSite::SaveDiskFull, 1.0, 0));
            assert!(new.save(&path).is_err());
        }
        assert_eq!(std::fs::read(&path).unwrap(), old_bytes);

        // With faults disarmed the save goes through and reloads bitwise.
        new.save(&path).unwrap();
        let back = ParamStore::load(&path).unwrap();
        assert_eq!(back.get(ParamId(0)).data(), &[9.0, 9.0]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn load_distinguishes_io_from_corruption() {
        let missing = std::path::Path::new("/nonexistent/stod/params.stpw");
        assert!(matches!(ParamStore::load(missing), Err(StoreError::Io(_))));
    }

    #[test]
    fn copy_from_matching_layout() {
        let mut a = ParamStore::new();
        a.register("w", Tensor::zeros(&[2]));
        let mut b = ParamStore::new();
        b.register("w", Tensor::from_vec(&[2], vec![5.0, 6.0]));
        a.copy_from(&b);
        assert_eq!(a.get(ParamId(0)).data(), &[5.0, 6.0]);
    }
}
