//! Borrowed-frame helpers: casting and copying between byte buffers and the
//! little-endian `u64` word frames every persisted treelab structure uses.
//!
//! The scheme store (`TLSTOR01`) and the forest store (`TLFRST01`) in
//! `treelab-core` are defined as sequences of 64-bit words, serialized
//! little-endian (see `FORMAT.md` at the repository root for the bit-for-bit
//! layouts).  A reader therefore has two ways in from a byte buffer:
//!
//! * the **borrow path** — [`try_cast_words`] reinterprets an 8-byte-aligned
//!   byte slice as `&[u64]` without copying anything, which is what makes
//!   mmap-style loading possible: map the file, cast, validate once, serve
//!   forever.  Misaligned or odd-length input is *refused* (with the
//!   misalignment offset), never silently copied;
//! * the **copy path** — [`words_from_bytes`] decodes the bytes into a fresh
//!   `Vec<u64>` (one widening pass).  It works at any alignment and on any
//!   host, at the cost of one buffer-sized copy.
//!
//! [`words_to_bytes`] is the inverse of the copy path (explicit little-endian
//! encode), used by the stores' `to_bytes`; [`write_words`] streams the same
//! bytes to a writer through a bounded buffer, for publishing a file.
//!
//! On 64-bit Unix this module also provides the third way in: `Mmap` maps a
//! file read-only through the raw `mmap(2)` syscall (no external crate — the
//! workspace dependency graph stays empty) and hands out the page-aligned
//! byte/word views the borrow path wants, so a multi-gigabyte frame is
//! servable without reading a single label byte up front.

/// Why a byte slice could not be borrowed as frame words.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum CastError {
    /// The slice does not start on an 8-byte boundary; `offset` is how many
    /// bytes past the previous boundary it starts (1–7).  Re-align the buffer
    /// or take the copy path ([`words_from_bytes`]).
    Misaligned {
        /// `address % 8` of the first byte (never 0 in this error).
        offset: usize,
    },
    /// The slice length is not a multiple of 8 bytes, so it cannot be a
    /// whole number of words.
    Length {
        /// The offending length in bytes.
        len: usize,
    },
    /// The host is big-endian: reinterpreting the little-endian frame bytes
    /// in place would misread every word.  Use [`words_from_bytes`], which
    /// byte-swaps as it copies.
    BigEndianHost,
}

impl core::fmt::Display for CastError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            CastError::Misaligned { offset } => write!(
                f,
                "byte buffer starts {offset} bytes past an 8-byte boundary \
                 (borrow path needs alignment; copy with words_from_bytes instead)"
            ),
            CastError::Length { len } => {
                write!(f, "byte length {len} is not a multiple of 8")
            }
            CastError::BigEndianHost => write!(
                f,
                "cannot borrow little-endian frame words on a big-endian host"
            ),
        }
    }
}

impl std::error::Error for CastError {}

/// How many bytes past the previous 8-byte boundary `bytes` starts
/// (`0` means the slice is word-aligned and [`try_cast_words`] can borrow it).
#[inline]
pub fn alignment_offset(bytes: &[u8]) -> usize {
    (bytes.as_ptr() as usize) % 8
}

/// Reinterprets an aligned byte slice as frame words — the zero-copy borrow
/// path for loading a persisted store from mapped memory.
///
/// # Errors
///
/// * [`CastError::Misaligned`] when the slice is not 8-byte aligned;
/// * [`CastError::Length`] when its length is not a multiple of 8;
/// * [`CastError::BigEndianHost`] on big-endian targets (frames are defined
///   little-endian; an in-place reinterpretation would misread them).
#[allow(unsafe_code)]
pub fn try_cast_words(bytes: &[u8]) -> Result<&[u64], CastError> {
    if cfg!(target_endian = "big") {
        return Err(CastError::BigEndianHost);
    }
    if !bytes.len().is_multiple_of(8) {
        return Err(CastError::Length { len: bytes.len() });
    }
    let offset = alignment_offset(bytes);
    if offset != 0 {
        return Err(CastError::Misaligned { offset });
    }
    // SAFETY: every bit pattern is a valid `u64`, `align_to` itself guarantees
    // the middle slice is correctly aligned, and the shared borrow keeps the
    // bytes alive and immutable for the lifetime of the returned words.
    let (head, words, tail) = unsafe { bytes.align_to::<u64>() };
    if !head.is_empty() || !tail.is_empty() {
        // `align_to` is allowed to yield a shorter-than-maximal middle; with
        // the explicit alignment and length checks above this cannot happen
        // on any real implementation, but correctness must not depend on it.
        return Err(CastError::Misaligned { offset: head.len() });
    }
    Ok(words)
}

/// The words of `bytes`, decoded little-endian into a fresh buffer — the copy
/// path, valid at any alignment and on any host.
///
/// # Errors
///
/// Returns [`CastError::Length`] when the length is not a multiple of 8.
pub fn words_from_bytes(bytes: &[u8]) -> Result<Vec<u64>, CastError> {
    if !bytes.len().is_multiple_of(8) {
        return Err(CastError::Length { len: bytes.len() });
    }
    Ok(bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect())
}

/// Serializes words little-endian — the persistable byte form of a frame.
pub fn words_to_bytes(words: &[u64]) -> Vec<u8> {
    let mut out = Vec::with_capacity(words.len() * 8);
    for &w in words {
        out.extend_from_slice(&w.to_le_bytes());
    }
    out
}

/// Words a [`write_words`] buffer holds: 64 KiB of bytes.
const WRITE_CHUNK_WORDS: usize = 8192;

/// Writes `words` to `out` little-endian — the bytes of [`words_to_bytes`] —
/// through one reused buffer of at most 64 KiB, so persisting a frame makes
/// no frame-sized byte copy.
///
/// # Errors
///
/// Returns the first error `out.write_all` reports.
pub fn write_words(out: &mut impl std::io::Write, words: &[u64]) -> std::io::Result<()> {
    let mut buf = Vec::with_capacity(8 * words.len().min(WRITE_CHUNK_WORDS));
    for chunk in words.chunks(WRITE_CHUNK_WORDS) {
        buf.clear();
        for &w in chunk {
            buf.extend_from_slice(&w.to_le_bytes());
        }
        out.write_all(&buf)?;
    }
    Ok(())
}

/// The native byte view of a word buffer (no copy).
///
/// On little-endian hosts this equals [`words_to_bytes`]; it exists so tests
/// and writers can produce a byte slice whose 8-byte alignment is
/// *guaranteed* (a `Vec<u8>` promises only byte alignment).
#[allow(unsafe_code)]
#[cfg(target_endian = "little")]
pub fn cast_bytes(words: &[u64]) -> &[u8] {
    // SAFETY: u8 has alignment 1, so the cast can never be misaligned, and
    // every byte of a u64 is initialized.
    let (head, bytes, tail) = unsafe { words.align_to::<u8>() };
    debug_assert!(head.is_empty() && tail.is_empty());
    bytes
}

/// A read-only memory map of a whole file, created through the raw `mmap(2)`
/// syscall — the zero-copy substrate of mmap-first frame serving.
///
/// The kernel hands back a page-aligned mapping, so [`Mmap::words`] (the
/// borrow-path cast) can never fail on alignment — only on a length that is
/// not a whole number of words.  The mapping is private (`MAP_PRIVATE`) and
/// read-only, which does **not** isolate it from the file: private pages are
/// copied only on a write through the map, which `PROT_READ` forbids, so on
/// Linux a page shows later writes to the file, and touching a page that a
/// truncation moved past the end of the file raises `SIGBUS`.  Replace a
/// mapped file only by writing a temp file and renaming it over the path:
/// the map keeps the old inode, which nobody writes.
///
/// Dropping the map unmaps it (`munmap(2)`).  The struct is `Send + Sync`:
/// nothing writes through the mapping for its whole lifetime.
///
/// Only 64-bit Unix builds have it: the binding below passes a 64-bit file
/// offset to the plain `mmap` symbol, whose `off_t` is 64 bits on every
/// 64-bit Unix but 32 bits on 32-bit glibc, musl and Android targets, where
/// the same call would pass its arguments in the wrong layout.
#[cfg(all(unix, target_pointer_width = "64"))]
pub struct Mmap {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

#[cfg(all(unix, target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod mmap_impl {
    use core::ffi::c_void;
    use std::os::unix::io::AsRawFd;

    // The raw syscall surface.  `std` already links the platform libc, so
    // these resolve without adding any crate dependency; the constants below
    // are identical on every Unix this workspace targets (Linux, macOS,
    // the BSDs): PROT_READ = 1, MAP_PRIVATE = 2.
    extern "C" {
        fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: i32,
            flags: i32,
            fd: i32,
            offset: i64,
        ) -> *mut c_void;
        fn munmap(addr: *mut c_void, len: usize) -> i32;
    }

    const PROT_READ: i32 = 1;
    const MAP_PRIVATE: i32 = 2;
    const MAP_FAILED: usize = usize::MAX;

    // SAFETY: the mapping is created read-only and never handed out mutably,
    // so sharing the raw pointer across threads is sound.
    unsafe impl Send for super::Mmap {}
    unsafe impl Sync for super::Mmap {}

    impl super::Mmap {
        /// Maps the whole of `file` read-only.
        ///
        /// # Errors
        ///
        /// Any I/O error from `fstat`/`mmap`; an empty file is refused with
        /// [`std::io::ErrorKind::InvalidInput`] (a zero-length `mmap` is
        /// undefined per POSIX, and no valid frame is empty anyway).
        pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
            let len = file.metadata()?.len();
            if len == 0 {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "cannot map an empty file (no valid frame is empty)",
                ));
            }
            let len = usize::try_from(len).map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidInput,
                    "file is larger than the address space",
                )
            })?;
            // SAFETY: a fresh private read-only mapping of a file we hold
            // open; the kernel validates the fd and length, and we check for
            // MAP_FAILED before trusting the pointer.
            let ptr = unsafe {
                mmap(
                    core::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_PRIVATE,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as usize == MAP_FAILED {
                return Err(std::io::Error::last_os_error());
            }
            Ok(super::Mmap { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: the mapping covers exactly `len` readable bytes, lives
            // until `Drop`, and is never written through (PROT_READ).
            unsafe { core::slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }

        /// The mapped bytes as little-endian frame words — the borrow path.
        /// Mappings are page-aligned, so only a non-word length (or a
        /// big-endian host) can fail here.
        ///
        /// # Errors
        ///
        /// See [`super::try_cast_words`].
        pub fn words(&self) -> Result<&[u64], super::CastError> {
            super::try_cast_words(self.bytes())
        }

        /// Length of the mapping in bytes.
        pub fn len(&self) -> usize {
            self.len
        }

        /// Always `false`: empty files are refused at map time.
        pub fn is_empty(&self) -> bool {
            self.len == 0
        }
    }

    impl Drop for super::Mmap {
        fn drop(&mut self) {
            // SAFETY: unmapping exactly the region mmap returned, once.
            let rc = unsafe { munmap(self.ptr, self.len) };
            debug_assert_eq!(rc, 0, "munmap failed");
        }
    }

    impl core::fmt::Debug for super::Mmap {
        fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
            f.debug_struct("Mmap").field("len", &self.len).finish()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn aligned_cast_round_trips() {
        let words: Vec<u64> = (0..9u64)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        let bytes = cast_bytes(&words);
        assert_eq!(alignment_offset(bytes), 0);
        assert_eq!(try_cast_words(bytes).unwrap(), &words[..]);
        // The safe copy path agrees with the borrow path.
        assert_eq!(words_from_bytes(bytes).unwrap(), words);
        assert_eq!(words_to_bytes(&words), bytes);
    }

    #[test]
    fn written_words_equal_the_serialized_bytes_across_buffer_edges() {
        let words: Vec<u64> = (0..2 * WRITE_CHUNK_WORDS as u64 + 3)
            .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .collect();
        for n in [0, 1, WRITE_CHUNK_WORDS - 1, WRITE_CHUNK_WORDS, words.len()] {
            let mut out = Vec::new();
            write_words(&mut out, &words[..n]).unwrap();
            assert_eq!(out, words_to_bytes(&words[..n]), "{n} words");
        }
    }

    #[test]
    fn misaligned_and_odd_lengths_are_refused() {
        let words: Vec<u64> = vec![1, 2, 3, 4];
        let bytes = cast_bytes(&words);
        // Every non-zero start offset within the first word is misaligned.
        for off in 1..8usize {
            let sub = &bytes[off..off + 16];
            assert_eq!(alignment_offset(sub), off);
            assert_eq!(
                try_cast_words(sub),
                Err(CastError::Misaligned { offset: off }),
                "offset {off}"
            );
        }
        // Odd byte lengths cannot be whole words (checked before alignment).
        assert_eq!(
            try_cast_words(&bytes[..15]),
            Err(CastError::Length { len: 15 })
        );
        assert_eq!(
            words_from_bytes(&bytes[..15]),
            Err(CastError::Length { len: 15 })
        );
        // Errors display something actionable.
        assert!(CastError::Misaligned { offset: 3 }
            .to_string()
            .contains("copy"));
        assert!(CastError::Length { len: 15 }.to_string().contains("15"));
    }

    #[cfg(all(unix, target_pointer_width = "64"))]
    #[test]
    fn mmap_round_trips_and_refuses_empty_files() {
        let words: Vec<u64> = (0..257u64)
            .map(|i| i.wrapping_mul(0x2545_F491_4F6C_DD1D))
            .collect();
        // A private directory: `create_dir` fails if it already exists, and
        // the guard removes it with its contents on drop.
        struct TestDir(std::path::PathBuf);
        impl Drop for TestDir {
            fn drop(&mut self) {
                let _ = std::fs::remove_dir_all(&self.0);
            }
        }
        let dir =
            TestDir(std::env::temp_dir().join(format!("treelab-mmap-test-{}", std::process::id())));
        std::fs::create_dir(&dir.0).expect("create a private test directory");
        let path = dir.0.join("words.bin");
        std::fs::write(&path, words_to_bytes(&words)).expect("write");

        let file = std::fs::File::open(&path).expect("open");
        let map = Mmap::map_file(&file).expect("map");
        assert_eq!(map.len(), words.len() * 8);
        assert!(!map.is_empty());
        assert_eq!(map.bytes(), words_to_bytes(&words));
        // Page alignment makes the borrow-path cast infallible here.
        assert_eq!(map.words().expect("aligned"), &words[..]);
        assert!(format!("{map:?}").contains("Mmap"));
        drop(map);

        // A file whose length is not a whole number of words maps fine but
        // refuses the word view.
        std::fs::write(&path, [1u8, 2, 3]).expect("write odd");
        let file = std::fs::File::open(&path).expect("open odd");
        let map = Mmap::map_file(&file).expect("map odd");
        assert_eq!(map.words(), Err(CastError::Length { len: 3 }));
        drop(map);

        // Empty files are refused at map time.
        std::fs::write(&path, []).expect("write empty");
        let file = std::fs::File::open(&path).expect("open empty");
        assert!(Mmap::map_file(&file).is_err());
    }
}
