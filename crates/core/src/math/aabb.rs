//! Axis-aligned cubes and boxes, and the octant arithmetic that underpins the
//! octree: every tree cell represents a cube, and a cube splits into eight
//! child octants indexed 0..8 by the sign of each coordinate relative to the
//! cube's center.

use super::vec3::Vec3;

/// An axis-aligned cube described by its center and half-side length.
///
/// Octree cells are always cubes (not general boxes): the root cube is the
/// smallest cube enclosing the bounding box of all bodies, and each
/// subdivision halves the side length.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cube {
    pub center: Vec3,
    /// Half of the side length. Always positive for a valid cube.
    pub half: f64,
}

impl Cube {
    #[inline]
    pub const fn new(center: Vec3, half: f64) -> Self {
        Cube { center, half }
    }

    /// Side length of the cube.
    #[inline]
    pub fn side(&self) -> f64 {
        2.0 * self.half
    }

    /// `true` if the point lies inside the cube (half-open: low edges
    /// inclusive, high edges exclusive, so the eight octants of a parent
    /// partition it exactly).
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.center.x - self.half
            && p.x < self.center.x + self.half
            && p.y >= self.center.y - self.half
            && p.y < self.center.y + self.half
            && p.z >= self.center.z - self.half
            && p.z < self.center.z + self.half
    }

    /// Which of the eight octants the point falls in, as an index in `0..8`.
    ///
    /// Bit 0 is set when `p.x >= center.x`, bit 1 for y, bit 2 for z. The
    /// point does not need to lie inside the cube; the octant is determined
    /// purely by the signs relative to the center, matching how the SPLASH
    /// Barnes-Hut codes route bodies during insertion.
    #[inline]
    pub fn octant_of(&self, p: Vec3) -> usize {
        (usize::from(p.x >= self.center.x))
            | (usize::from(p.y >= self.center.y) << 1)
            | (usize::from(p.z >= self.center.z) << 2)
    }

    /// The child cube for octant `oct` (`0..8`).
    #[inline]
    pub fn octant(&self, oct: usize) -> Cube {
        debug_assert!(oct < 8);
        let q = self.half * 0.5;
        let sign = |bit: usize| if oct >> bit & 1 == 1 { q } else { -q };
        Cube {
            center: Vec3::new(
                self.center.x + sign(0),
                self.center.y + sign(1),
                self.center.z + sign(2),
            ),
            half: q,
        }
    }

    /// Smallest cube centered on the box's center that contains the box,
    /// inflated slightly so that boundary points satisfy the half-open
    /// containment test.
    pub fn enclosing(bbox: &Aabb) -> Cube {
        let center = (bbox.min + bbox.max) * 0.5;
        let half = ((bbox.max - bbox.min).max_component() * 0.5).max(f64::MIN_POSITIVE);
        // Inflate so points exactly on the max faces stay strictly inside.
        Cube {
            center,
            half: half * 1.000_001 + 1e-12,
        }
    }

    /// Minimum distance from point `p` to the cube surface (0 if inside).
    pub fn distance_to(&self, p: Vec3) -> f64 {
        let mut d2 = 0.0;
        for i in 0..3 {
            let lo = self.center[i] - self.half;
            let hi = self.center[i] + self.half;
            let d = if p[i] < lo {
                lo - p[i]
            } else if p[i] > hi {
                p[i] - hi
            } else {
                0.0
            };
            d2 += d * d;
        }
        d2.sqrt()
    }
}

/// An axis-aligned bounding box.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    pub min: Vec3,
    pub max: Vec3,
}

impl Aabb {
    /// The empty box: grows to fit anything via [`Aabb::grow`].
    pub const EMPTY: Aabb = Aabb {
        min: Vec3::splat(f64::INFINITY),
        max: Vec3::splat(f64::NEG_INFINITY),
    };

    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        Aabb { min, max }
    }

    /// Expand to include the point.
    #[inline]
    pub fn grow(&mut self, p: Vec3) {
        self.min = self.min.min(p);
        self.max = self.max.max(p);
    }

    /// Union of two boxes.
    #[inline]
    pub fn merged(&self, other: &Aabb) -> Aabb {
        Aabb {
            min: self.min.min(other.min),
            max: self.max.max(other.max),
        }
    }

    /// Bounding box of a set of points; `EMPTY` if the slice is empty.
    pub fn from_points<I: IntoIterator<Item = Vec3>>(points: I) -> Aabb {
        let mut b = Aabb::EMPTY;
        for p in points {
            b.grow(p);
        }
        b
    }

    /// `true` if no point has been added yet.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.min.x > self.max.x
    }

    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.x <= self.max.x
            && p.y >= self.min.y
            && p.y <= self.max.y
            && p.z >= self.min.z
            && p.z <= self.max.z
    }

    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn octants_partition_the_cube() {
        let c = Cube::new(Vec3::ZERO, 1.0);
        // Sample a grid of points; each must be contained in exactly one octant.
        for ix in -4..4 {
            for iy in -4..4 {
                for iz in -4..4 {
                    let p = Vec3::new(
                        ix as f64 / 4.0 + 0.01,
                        iy as f64 / 4.0 + 0.01,
                        iz as f64 / 4.0 + 0.01,
                    );
                    if !c.contains(p) {
                        continue;
                    }
                    let n: usize = (0..8).filter(|&o| c.octant(o).contains(p)).count();
                    assert_eq!(n, 1, "point {p:?} contained in {n} octants");
                    assert!(c.octant(c.octant_of(p)).contains(p));
                }
            }
        }
    }

    #[test]
    fn octant_of_routes_by_sign() {
        let c = Cube::new(Vec3::new(1.0, 1.0, 1.0), 2.0);
        assert_eq!(c.octant_of(Vec3::new(0.0, 0.0, 0.0)), 0);
        assert_eq!(c.octant_of(Vec3::new(2.0, 0.0, 0.0)), 1);
        assert_eq!(c.octant_of(Vec3::new(0.0, 2.0, 0.0)), 2);
        assert_eq!(c.octant_of(Vec3::new(0.0, 0.0, 2.0)), 4);
        assert_eq!(c.octant_of(Vec3::new(2.0, 2.0, 2.0)), 7);
    }

    #[test]
    fn octant_geometry() {
        let c = Cube::new(Vec3::ZERO, 2.0);
        let o = c.octant(7);
        assert_eq!(o.half, 1.0);
        assert_eq!(o.center, Vec3::new(1.0, 1.0, 1.0));
        let o0 = c.octant(0);
        assert_eq!(o0.center, Vec3::new(-1.0, -1.0, -1.0));
    }

    #[test]
    fn enclosing_cube_contains_all_points() {
        let pts = [
            Vec3::new(-3.0, 1.0, 2.0),
            Vec3::new(5.0, -2.0, 0.5),
            Vec3::new(0.0, 7.0, -1.0),
        ];
        let bbox = Aabb::from_points(pts.iter().copied());
        let cube = Cube::enclosing(&bbox);
        for p in pts {
            assert!(cube.contains(p), "{p:?} not in enclosing cube");
        }
    }

    #[test]
    fn aabb_grow_and_merge() {
        let mut a = Aabb::EMPTY;
        assert!(a.is_empty());
        a.grow(Vec3::new(1.0, 2.0, 3.0));
        a.grow(Vec3::new(-1.0, 0.0, 5.0));
        assert!(!a.is_empty());
        assert_eq!(a.min, Vec3::new(-1.0, 0.0, 3.0));
        assert_eq!(a.max, Vec3::new(1.0, 2.0, 5.0));
        let b = Aabb::new(Vec3::new(0.0, -9.0, 0.0), Vec3::new(0.5, 0.0, 9.0));
        let m = a.merged(&b);
        assert_eq!(m.min, Vec3::new(-1.0, -9.0, 0.0));
        assert_eq!(m.max, Vec3::new(1.0, 2.0, 9.0));
    }

    #[test]
    fn cube_distance() {
        let c = Cube::new(Vec3::ZERO, 1.0);
        assert_eq!(c.distance_to(Vec3::ZERO), 0.0);
        assert_eq!(c.distance_to(Vec3::new(0.5, -0.5, 0.9)), 0.0);
        assert!((c.distance_to(Vec3::new(2.0, 0.0, 0.0)) - 1.0).abs() < 1e-12);
        let d = c.distance_to(Vec3::new(2.0, 2.0, 0.0));
        assert!((d - std::f64::consts::SQRT_2).abs() < 1e-12);
    }

    #[test]
    fn degenerate_point_cloud() {
        // All points identical: enclosing cube must still be valid (positive half).
        let p = Vec3::new(4.0, 4.0, 4.0);
        let bbox = Aabb::from_points(std::iter::repeat_n(p, 5));
        let cube = Cube::enclosing(&bbox);
        assert!(cube.half > 0.0);
        assert!(cube.contains(p));
    }
}
