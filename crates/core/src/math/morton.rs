//! Morton (Z-order) keys.
//!
//! The costzones partitioner orders tree cells by a canonical child ordering;
//! Morton keys give the same space-filling order directly on points, which is
//! useful for building balanced work assignments, for deterministic tie
//! breaking, and for the tests that cross-check tree traversal order.

use super::aabb::Cube;
use super::vec3::Vec3;

/// Number of bits of resolution per dimension in a 63-bit Morton key.
pub const MORTON_BITS: u32 = 21;

/// Spread the low 21 bits of `v` so that there are two zero bits between
/// every pair of adjacent payload bits.
#[inline]
fn spread(v: u64) -> u64 {
    let mut x = v & 0x1f_ffff; // 21 bits
    x = (x | (x << 32)) & 0x1f00000000ffff;
    x = (x | (x << 16)) & 0x1f0000ff0000ff;
    x = (x | (x << 8)) & 0x100f00f00f00f00f;
    x = (x | (x << 4)) & 0x10c30c30c30c30c3;
    x = (x | (x << 2)) & 0x1249249249249249;
    x
}

/// Inverse of [`spread`].
#[inline]
fn compact(v: u64) -> u64 {
    let mut x = v & 0x1249249249249249;
    x = (x | (x >> 2)) & 0x10c30c30c30c30c3;
    x = (x | (x >> 4)) & 0x100f00f00f00f00f;
    x = (x | (x >> 8)) & 0x1f0000ff0000ff;
    x = (x | (x >> 16)) & 0x1f00000000ffff;
    x = (x | (x >> 32)) & 0x1f_ffff;
    x
}

/// Interleave three 21-bit integer coordinates into a 63-bit Morton key.
#[inline]
pub fn encode(ix: u64, iy: u64, iz: u64) -> u64 {
    spread(ix) | (spread(iy) << 1) | (spread(iz) << 2)
}

/// Recover the three 21-bit coordinates from a Morton key.
#[inline]
pub fn decode(key: u64) -> (u64, u64, u64) {
    (compact(key), compact(key >> 1), compact(key >> 2))
}

/// Morton key of a point within a root cube. Points outside the cube are
/// clamped to its surface. Inlined: called out of line from MORTON's key
/// sort it cost ~3x the inlined key.
#[inline]
pub fn key_in_cube(p: Vec3, root: &Cube) -> u64 {
    let scale = (1u64 << MORTON_BITS) as f64;
    let side = root.side();
    let quantize = |c: f64, lo: f64| -> u64 {
        let t = ((c - lo) / side * scale).floor();
        let max = scale - 1.0;
        t.clamp(0.0, max) as u64
    };
    let lo = root.center - Vec3::splat(root.half);
    encode(
        quantize(p.x, lo.x),
        quantize(p.y, lo.y),
        quantize(p.z, lo.z),
    )
}

/// The octant path of a Morton key truncated to `depth` levels, most
/// significant octant first. Matches [`Cube::octant_of`] routing: at every
/// level the octant index has bit 0 = x, bit 1 = y, bit 2 = z.
pub fn octant_path(key: u64, depth: u32) -> impl Iterator<Item = usize> {
    (0..depth).map(move |d| {
        let shift = 3 * (MORTON_BITS - 1 - d);
        ((key >> shift) & 0b111) as usize
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_roundtrip() {
        for &(x, y, z) in &[
            (0u64, 0, 0),
            (1, 2, 3),
            (0x1f_ffff, 0x1f_ffff, 0x1f_ffff),
            (12345, 67890, 999),
        ] {
            let k = encode(x, y, z);
            assert_eq!(decode(k), (x, y, z));
        }
    }

    #[test]
    fn interleaving_is_strictly_ordered_per_axis() {
        // Increasing one coordinate with others fixed increases the key.
        let base = encode(5, 9, 13);
        assert!(encode(6, 9, 13) > base);
        assert!(encode(5, 10, 13) > base);
        assert!(encode(5, 9, 14) > base);
    }

    #[test]
    fn key_in_cube_clamps() {
        let cube = Cube::new(Vec3::ZERO, 1.0);
        let far = Vec3::new(100.0, -100.0, 0.0);
        let k = key_in_cube(far, &cube);
        let (x, y, _z) = decode(k);
        assert_eq!(x, (1 << MORTON_BITS) - 1);
        assert_eq!(y, 0);
    }

    #[test]
    fn octant_path_matches_cube_descent() {
        let root = Cube::new(Vec3::new(0.5, 0.5, 0.5), 0.5);
        let p = Vec3::new(0.8, 0.2, 0.6);
        let key = key_in_cube(p, &root);
        let mut cube = root;
        for oct in octant_path(key, 8) {
            assert_eq!(
                oct,
                cube.octant_of(p),
                "octant path diverged at cube {cube:?}"
            );
            cube = cube.octant(oct);
            assert!(cube.contains(p));
        }
    }

    #[test]
    fn morton_order_groups_spatially() {
        // Points in the same child octant of the root sort adjacently before
        // any point of another octant: keys share the leading 3 bits.
        let root = Cube::new(Vec3::ZERO, 1.0);
        let a = key_in_cube(Vec3::new(-0.5, -0.5, -0.5), &root);
        let b = key_in_cube(Vec3::new(-0.4, -0.6, -0.3), &root);
        let c = key_in_cube(Vec3::new(0.5, 0.5, 0.5), &root);
        let top = |k: u64| k >> (3 * (MORTON_BITS - 1));
        assert_eq!(top(a), top(b));
        assert_ne!(top(a), top(c));
    }
}
