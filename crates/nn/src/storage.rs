//! Shared read-only weight storage.
//!
//! A [`ByteRegion`] is an immutable byte buffer that tensor views can borrow
//! through an `Arc`: either a private read-only `mmap` of a checkpoint file
//! (unix, little-endian targets) or an 8-byte-aligned heap copy everywhere
//! else. The v2 checkpoint format lays its tensor data out little-endian and
//! 64-byte aligned precisely so a mapped region can be used in place — a
//! loaded model and every clone of it share one weight copy, and a clone
//! costs descriptors, not a parse.
//!
//! [`TensorTable`] is the writer side: it appends tensor payloads to a data
//! region, aligning each to [`DATA_ALIGN`] and returning its offset for the
//! checkpoint header's tensor table.
//!
//! This is the only module in the crate that uses `unsafe` (the crate is
//! otherwise `deny(unsafe_code)`): the raw `mmap`/`munmap` calls and the
//! byte/f32 reinterpretation views live here, behind safe accessors that
//! check bounds and alignment.
#![allow(unsafe_code)]

use std::fs::File;
use std::io::Read;
use std::path::Path;

/// Alignment (bytes) of every tensor payload inside a data region. 64 bytes
/// covers a cache line and any SIMD width a future kernel tier might want.
pub const DATA_ALIGN: usize = 64;

/// Raw bindings for memory mapping. `std` already links libc on unix, so the
/// symbols resolve without adding a dependency.
#[cfg(all(unix, target_endian = "little"))]
mod sys {
    use std::ffi::c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    pub const PROT_READ: i32 = 1;
    pub const MAP_PRIVATE: i32 = 2;

    pub fn map_failed() -> *mut c_void {
        usize::MAX as *mut c_void
    }
}

/// The backing buffer of a [`ByteRegion`].
enum RegionBuf {
    /// A heap copy. Backed by `u64` words so the byte view is 8-byte aligned
    /// (f32 reinterpretation needs 4).
    Heap { words: Vec<u64>, len: usize },
    /// A private read-only file mapping (unmapped on drop).
    #[cfg(all(unix, target_endian = "little"))]
    Mapped { ptr: *mut u8, len: usize },
}

/// An immutable, aligned byte buffer that outlives every tensor view into it.
///
/// Constructed once per checkpoint load and shared via `Arc`; [`ByteRegion`]
/// never mutates its contents, so sharing it across threads is sound even
/// for the raw-pointer mapped variant.
pub struct ByteRegion {
    buf: RegionBuf,
}

// SAFETY: the buffer is immutable after construction — the mapped variant is
// PROT_READ/MAP_PRIVATE and no `&mut` accessor exists — so shared references
// across threads cannot race.
unsafe impl Send for ByteRegion {}
unsafe impl Sync for ByteRegion {}

impl Drop for ByteRegion {
    fn drop(&mut self) {
        #[cfg(all(unix, target_endian = "little"))]
        if let RegionBuf::Mapped { ptr, len } = self.buf {
            // SAFETY: `ptr`/`len` came from a successful mmap and are
            // unmapped exactly once, here.
            unsafe {
                sys::munmap(ptr.cast(), len);
            }
        }
    }
}

impl std::fmt::Debug for ByteRegion {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ByteRegion")
            .field("len", &self.len())
            .field("mapped", &self.is_mapped())
            .finish()
    }
}

impl ByteRegion {
    /// Maps `path` read-only. On unix little-endian targets this is a true
    /// `mmap` (the file's pages are shared, not copied); elsewhere — or if
    /// the map call fails — the file is read into an aligned heap buffer.
    ///
    /// # Errors
    /// Returns the underlying I/O error if the file cannot be opened or read.
    pub fn from_file(path: &Path) -> std::io::Result<ByteRegion> {
        let mut f = File::open(path)?;
        let len = usize::try_from(f.metadata()?.len()).map_err(|_| {
            std::io::Error::new(std::io::ErrorKind::InvalidData, "file too large to map")
        })?;
        #[cfg(all(unix, target_endian = "little"))]
        if len > 0 {
            use std::os::unix::io::AsRawFd;
            // SAFETY: plain read-only private mapping of an open fd; failure
            // is reported via MAP_FAILED and falls through to the heap path.
            let ptr = unsafe {
                sys::mmap(
                    std::ptr::null_mut(),
                    len,
                    sys::PROT_READ,
                    sys::MAP_PRIVATE,
                    f.as_raw_fd(),
                    0,
                )
            };
            if ptr != sys::map_failed() {
                return Ok(ByteRegion {
                    buf: RegionBuf::Mapped {
                        ptr: ptr.cast(),
                        len,
                    },
                });
            }
        }
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: `words` owns at least `len` initialized bytes; u64 has no
        // invalid bit patterns, so writing raw file bytes through the view
        // is sound.
        let bytes = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        f.read_exact(bytes)?;
        Ok(ByteRegion {
            buf: RegionBuf::Heap { words, len },
        })
    }

    /// An aligned heap region holding a copy of `bytes` (tests, in-memory
    /// loads).
    pub fn from_bytes(bytes: &[u8]) -> ByteRegion {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)];
        // SAFETY: same as in `from_file` — the word buffer owns `len` bytes.
        let dst = unsafe { std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), len) };
        dst.copy_from_slice(bytes);
        ByteRegion {
            buf: RegionBuf::Heap { words, len },
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        match &self.buf {
            RegionBuf::Heap { len, .. } => *len,
            #[cfg(all(unix, target_endian = "little"))]
            RegionBuf::Mapped { len, .. } => *len,
        }
    }

    /// True when the region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True when backed by a live file mapping (false for heap copies).
    pub fn is_mapped(&self) -> bool {
        match &self.buf {
            RegionBuf::Heap { .. } => false,
            #[cfg(all(unix, target_endian = "little"))]
            RegionBuf::Mapped { .. } => true,
        }
    }

    /// The whole region as bytes (digest verification, header parsing).
    pub fn bytes(&self) -> &[u8] {
        match &self.buf {
            // SAFETY: `words` owns `len` initialized bytes for the lifetime
            // of `self`.
            RegionBuf::Heap { words, len } => unsafe {
                std::slice::from_raw_parts(words.as_ptr().cast::<u8>(), *len)
            },
            // SAFETY: the mapping is valid for `len` bytes until drop.
            #[cfg(all(unix, target_endian = "little"))]
            RegionBuf::Mapped { ptr, len } => unsafe { std::slice::from_raw_parts(*ptr, *len) },
        }
    }

    /// `count` f32 values starting at byte offset `off`, viewed in place.
    ///
    /// Only meaningful on little-endian targets (the v2 data region is
    /// little-endian); big-endian loaders copy through
    /// [`f32::from_le_bytes`] instead of constructing shared views.
    ///
    /// # Panics
    /// Panics if the range is out of bounds or `off` is not 4-byte aligned —
    /// loaders validate both before building a view, so a panic here means a
    /// checkpoint-loader bug, not bad input.
    pub fn f32s(&self, off: usize, count: usize) -> &[f32] {
        let bytes = self.bytes();
        let nbytes = count.checked_mul(4).expect("f32 view size overflow");
        let end = off.checked_add(nbytes).expect("f32 view end overflow");
        assert!(end <= bytes.len(), "f32 view out of bounds");
        let sub = &bytes[off..end];
        assert_eq!(sub.as_ptr() as usize % 4, 0, "f32 view misaligned");
        #[cfg(target_endian = "little")]
        // SAFETY: bounds and 4-byte alignment checked above; f32 has no
        // invalid bit patterns; the region is immutable and outlives the
        // returned slice.
        unsafe {
            std::slice::from_raw_parts(sub.as_ptr().cast::<f32>(), count)
        }
        #[cfg(not(target_endian = "little"))]
        unreachable!("shared f32 views are little-endian only")
    }
}

/// Writer for a v2 data region: tensor payloads appended little-endian, each
/// aligned to [`DATA_ALIGN`], with offsets handed back for the header table.
#[derive(Debug, Default)]
pub struct TensorTable {
    data: Vec<u8>,
}

impl TensorTable {
    /// An empty data region.
    pub fn new() -> Self {
        TensorTable::default()
    }

    /// Appends `vals` (little-endian f32) at the next aligned offset and
    /// returns that offset, relative to the start of the data region.
    pub fn push_f32s(&mut self, vals: &[f32]) -> usize {
        let pad = self.data.len().next_multiple_of(DATA_ALIGN) - self.data.len();
        self.data.extend(std::iter::repeat(0u8).take(pad));
        let off = self.data.len();
        for v in vals {
            self.data.extend_from_slice(&v.to_le_bytes());
        }
        off
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The finished data region.
    pub fn into_bytes(self) -> Vec<u8> {
        self.data
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_every_tensor_and_region_roundtrips() {
        let mut table = TensorTable::new();
        let a = [1.0f32, -2.5, 3.25];
        let b = [0.5f32; 20];
        let off_a = table.push_f32s(&a);
        let off_b = table.push_f32s(&b);
        assert_eq!(off_a, 0);
        assert_eq!(off_b % DATA_ALIGN, 0);
        assert!(off_b >= a.len() * 4);
        let bytes = table.into_bytes();
        let region = ByteRegion::from_bytes(&bytes);
        assert_eq!(region.bytes(), &bytes[..]);
        assert!(!region.is_mapped());
        assert_eq!(region.f32s(off_a, a.len()), &a[..]);
        assert_eq!(region.f32s(off_b, b.len()), &b[..]);
    }

    #[test]
    fn file_region_maps_and_matches_contents() {
        let dir = std::env::temp_dir().join("vega-nn-storage-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("region.bin");
        let mut table = TensorTable::new();
        let vals: Vec<f32> = (0..100).map(|i| i as f32 * 0.125).collect();
        let off = table.push_f32s(&vals);
        let bytes = table.into_bytes();
        std::fs::write(&path, &bytes).unwrap();
        let region = ByteRegion::from_file(&path).unwrap();
        assert_eq!(region.len(), bytes.len());
        assert_eq!(region.bytes(), &bytes[..]);
        assert_eq!(region.f32s(off, vals.len()), &vals[..]);
        #[cfg(all(unix, target_endian = "little"))]
        assert!(region.is_mapped(), "unix little-endian should mmap");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_file_region_is_empty_not_an_error() {
        let dir = std::env::temp_dir().join("vega-nn-storage-empty");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("empty.bin");
        std::fs::write(&path, b"").unwrap();
        let region = ByteRegion::from_file(&path).unwrap();
        assert!(region.is_empty());
        assert_eq!(region.bytes(), b"");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn out_of_bounds_view_panics() {
        let region = ByteRegion::from_bytes(&[0u8; 8]);
        let _ = region.f32s(4, 2);
    }
}
