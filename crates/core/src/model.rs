//! Initial-condition generators for galaxy simulations.
//!
//! The paper's evaluation drives a 3-D Barnes-Hut *galaxy simulation*; the
//! standard initial condition for such studies (and the one shipped with the
//! SPLASH-2 `barnes` code the paper builds on) is the Plummer model. We also
//! provide a uniform sphere and a two-cluster collision, which exercise very
//! different tree shapes: the Plummer model produces a deep, strongly adaptive
//! tree; the uniform sphere a shallow balanced one; the collision model two
//! dense subtrees plus sparse surroundings.

use crate::body::Body;
use crate::math::Vec3;
use crate::rng::SmallRng;

/// Which initial body distribution to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Model {
    /// Plummer (1911) stellar cluster model — the SPLASH-2 `barnes` default.
    Plummer,
    /// Bodies uniform in a unit sphere with small random velocities.
    UniformSphere,
    /// Two Plummer clusters on a collision course.
    TwoClusterCollision,
}

impl Model {
    /// Every generator, in documentation order.
    pub const ALL: [Model; 3] = [
        Model::Plummer,
        Model::UniformSphere,
        Model::TwoClusterCollision,
    ];

    /// Stable lower-case name (inverse of [`Model::parse`]); used by the
    /// job protocol and CLI diagnostics.
    pub fn name(self) -> &'static str {
        match self {
            Model::Plummer => "plummer",
            Model::UniformSphere => "uniform",
            Model::TwoClusterCollision => "collision",
        }
    }

    pub fn parse(s: &str) -> Option<Model> {
        match s.to_ascii_lowercase().as_str() {
            "plummer" => Some(Model::Plummer),
            "uniform" | "sphere" => Some(Model::UniformSphere),
            "collision" | "clusters" => Some(Model::TwoClusterCollision),
            _ => None,
        }
    }

    /// Generate `n` bodies with the given RNG seed. Deterministic for a
    /// given `(model, n, seed)` triple.
    pub fn generate(self, n: usize, seed: u64) -> Vec<Body> {
        let mut rng = SmallRng::seed_from_u64(seed);
        match self {
            Model::Plummer => plummer(n, &mut rng, Vec3::ZERO, Vec3::ZERO, 1.0),
            Model::UniformSphere => uniform_sphere(n, &mut rng),
            Model::TwoClusterCollision => two_clusters(n, &mut rng),
        }
    }
}

/// Uniform random point in the unit ball.
fn unit_ball(rng: &mut SmallRng) -> Vec3 {
    loop {
        let p = Vec3::new(
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
            rng.gen_range(-1.0, 1.0),
        );
        if p.norm_sq() <= 1.0 {
            return p;
        }
    }
}

/// Uniform random direction.
fn unit_vector(rng: &mut SmallRng) -> Vec3 {
    loop {
        let p = unit_ball(rng);
        if let Some(u) = p.normalized() {
            return u;
        }
    }
}

/// The Plummer model in virial units (total mass 1, E = -1/4), following
/// Aarseth, Henon & Wielen (1974) — the same construction as SPLASH-2's
/// `testdata.C`.
fn plummer(
    n: usize,
    rng: &mut SmallRng,
    offset_pos: Vec3,
    offset_vel: Vec3,
    mass_scale: f64,
) -> Vec<Body> {
    assert!(n > 0, "cannot generate an empty Plummer model");
    let mut bodies = Vec::with_capacity(n);
    let rsc = 3.0 * std::f64::consts::PI / 16.0; // radius scale to virial units
    let vsc = (1.0 / rsc).sqrt();
    let mass = mass_scale / n as f64;
    for _ in 0..n {
        // Radius from the cumulative mass profile, rejecting the far tail so
        // the bounding cube stays finite and representative.
        let r = loop {
            let m: f64 = rng.gen_range(1e-8, 0.999);
            let r = (m.powf(-2.0 / 3.0) - 1.0).powf(-0.5);
            if r < 9.0 {
                break r;
            }
        };
        let pos = unit_vector(rng) * (r * rsc);

        // Velocity magnitude by von Neumann rejection from q^2 (1-q^2)^{7/2}.
        let q = loop {
            let x: f64 = rng.gen_range(0.0, 1.0);
            let y: f64 = rng.gen_range(0.0, 0.1);
            if y < x * x * (1.0 - x * x).powf(3.5) {
                break x;
            }
        };
        let speed = q * std::f64::consts::SQRT_2 * (1.0 + r * r).powf(-0.25);
        let vel = unit_vector(rng) * (speed * vsc);

        bodies.push(Body::new(pos + offset_pos, vel + offset_vel, mass));
    }
    // Recenter so the center of mass is exactly at offset_pos with bulk
    // velocity offset_vel (removes sampling noise; standard practice).
    let com: Vec3 = bodies.iter().map(|b| b.pos * b.mass).sum::<Vec3>() / mass_scale;
    let cov: Vec3 = bodies.iter().map(|b| b.vel * b.mass).sum::<Vec3>() / mass_scale;
    for b in &mut bodies {
        b.pos += offset_pos - com;
        b.vel += offset_vel - cov;
    }
    bodies
}

fn uniform_sphere(n: usize, rng: &mut SmallRng) -> Vec<Body> {
    let mass = 1.0 / n as f64;
    (0..n)
        .map(|_| Body::new(unit_ball(rng), unit_ball(rng) * 0.1, mass))
        .collect()
}

fn two_clusters(n: usize, rng: &mut SmallRng) -> Vec<Body> {
    let n1 = n / 2;
    let n2 = n - n1;
    let sep = Vec3::new(4.0, 0.3, 0.0);
    let approach = Vec3::new(-0.5, 0.0, 0.0);
    let mut bodies = plummer(n1.max(1), rng, sep, approach, 0.5);
    bodies.extend(plummer(n2.max(1), rng, -sep, -approach, 0.5));
    bodies.truncate(n);
    bodies
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::body::{bounding_box, center_of_mass, total_mass};

    #[test]
    fn plummer_mass_and_com() {
        let bodies = Model::Plummer.generate(2000, 42);
        assert_eq!(bodies.len(), 2000);
        assert!((total_mass(&bodies) - 1.0).abs() < 1e-9);
        assert!(center_of_mass(&bodies).norm() < 1e-9);
    }

    #[test]
    fn plummer_is_deterministic() {
        let a = Model::Plummer.generate(100, 7);
        let b = Model::Plummer.generate(100, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Model::Plummer.generate(100, 7);
        let b = Model::Plummer.generate(100, 8);
        assert_ne!(a, b);
    }

    #[test]
    fn plummer_positions_bounded() {
        let bodies = Model::Plummer.generate(5000, 1);
        let bb = bounding_box(&bodies);
        // Rejection keeps r < 9 (virial units ~ r*rsc < 9*0.59 ≈ 5.3).
        assert!((bb.max - bb.min).max_component() < 12.0);
        for b in &bodies {
            assert!(b.pos.is_finite() && b.vel.is_finite());
            assert!(b.mass > 0.0);
        }
    }

    #[test]
    fn plummer_is_centrally_concentrated() {
        // More than half the bodies should lie within the inner quarter of
        // the maximum radius — the adaptive-tree property the paper relies on.
        let bodies = Model::Plummer.generate(4000, 3);
        let rmax = bodies.iter().map(|b| b.pos.norm()).fold(0.0, f64::max);
        let inner = bodies.iter().filter(|b| b.pos.norm() < rmax / 4.0).count();
        assert!(
            inner * 2 > bodies.len(),
            "inner {} of {}",
            inner,
            bodies.len()
        );
    }

    #[test]
    fn uniform_sphere_in_ball() {
        let bodies = Model::UniformSphere.generate(1000, 9);
        for b in &bodies {
            assert!(b.pos.norm_sq() <= 1.0 + 1e-12);
        }
    }

    #[test]
    fn two_clusters_are_separated() {
        let bodies = Model::TwoClusterCollision.generate(2000, 11);
        assert_eq!(bodies.len(), 2000);
        let left = bodies.iter().filter(|b| b.pos.x < 0.0).count();
        // Roughly half on each side of the yz-plane.
        assert!(left > 600 && left < 1400, "left = {left}");
    }

    #[test]
    fn names_round_trip_through_parse() {
        for m in Model::ALL {
            assert_eq!(Model::parse(m.name()), Some(m));
        }
        assert_eq!(Model::parse("PLUMMER"), Some(Model::Plummer));
        assert!(Model::parse("galaxy").is_none());
    }

    #[test]
    fn odd_body_counts_supported() {
        for n in [1usize, 3, 17, 1001] {
            for model in [
                Model::Plummer,
                Model::UniformSphere,
                Model::TwoClusterCollision,
            ] {
                assert_eq!(model.generate(n, 5).len(), n, "{model:?} n={n}");
            }
        }
    }
}
