//! Strongly-typed physical quantities used throughout the simulator.
//!
//! All four quantities are thin newtypes over `f64` with a fixed canonical
//! base unit ([`Area`]: µm², [`Energy`]: pJ, [`Power`]: mW, [`Latency`]: ns).
//! They implement the arithmetic that is physically meaningful — adding two
//! energies, scaling by a count, `Power × Latency → Energy`,
//! `Energy / Latency → Power` — and nothing else, so unit mistakes in the
//! higher layers fail to compile.
//!
//! # Example
//!
//! ```
//! use pim_device::units::{Energy, Latency, Power};
//!
//! let leakage = Power::from_mw(1.2);
//! let elapsed = Latency::from_ns(8.0);
//! let burned: Energy = leakage * elapsed;
//! assert!((burned.as_pj() - 9.6).abs() < 1e-12);
//! ```

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

macro_rules! quantity {
    ($(#[$meta:meta])* $name:ident, $base:literal) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy, PartialEq, PartialOrd, Default)]
        pub struct $name(f64);

        impl $name {
            /// The zero quantity.
            pub const ZERO: Self = Self(0.0);

            /// Creates a quantity from a raw value in the canonical base
            /// unit (`
            #[doc = $base]
            /// `).
            #[inline]
            pub const fn from_base(value: f64) -> Self {
                Self(value)
            }

            /// Returns the raw value in the canonical base unit.
            #[inline]
            pub const fn as_base(self) -> f64 {
                self.0
            }

            /// Returns `true` if the value is exactly zero.
            #[inline]
            pub fn is_zero(self) -> bool {
                self.0 == 0.0
            }

            /// Returns the larger of `self` and `other`.
            #[inline]
            pub fn max(self, other: Self) -> Self {
                Self(self.0.max(other.0))
            }

            /// Returns the smaller of `self` and `other`.
            #[inline]
            pub fn min(self, other: Self) -> Self {
                Self(self.0.min(other.0))
            }

            /// Dimensionless ratio `self / other`.
            ///
            /// Returns `f64::INFINITY` when `other` is zero and `self` is
            /// positive, mirroring IEEE-754 division.
            #[inline]
            pub fn ratio(self, other: Self) -> f64 {
                self.0 / other.0
            }
        }

        impl Add for $name {
            type Output = Self;
            #[inline]
            fn add(self, rhs: Self) -> Self {
                Self(self.0 + rhs.0)
            }
        }

        impl AddAssign for $name {
            #[inline]
            fn add_assign(&mut self, rhs: Self) {
                self.0 += rhs.0;
            }
        }

        impl Sub for $name {
            type Output = Self;
            #[inline]
            fn sub(self, rhs: Self) -> Self {
                Self(self.0 - rhs.0)
            }
        }

        impl SubAssign for $name {
            #[inline]
            fn sub_assign(&mut self, rhs: Self) {
                self.0 -= rhs.0;
            }
        }

        impl Mul<f64> for $name {
            type Output = Self;
            #[inline]
            fn mul(self, rhs: f64) -> Self {
                Self(self.0 * rhs)
            }
        }

        impl Mul<$name> for f64 {
            type Output = $name;
            #[inline]
            fn mul(self, rhs: $name) -> $name {
                $name(self * rhs.0)
            }
        }

        impl Div<f64> for $name {
            type Output = Self;
            #[inline]
            fn div(self, rhs: f64) -> Self {
                Self(self.0 / rhs)
            }
        }

        impl Sum for $name {
            fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
                iter.fold(Self::ZERO, Add::add)
            }
        }
    };
}

quantity!(
    /// Silicon area; canonical unit **µm²**.
    Area,
    "µm²"
);
quantity!(
    /// Energy; canonical unit **pJ**.
    Energy,
    "pJ"
);
quantity!(
    /// Power; canonical unit **mW**.
    Power,
    "mW"
);
quantity!(
    /// Time / latency; canonical unit **ns**.
    Latency,
    "ns"
);

impl Area {
    /// Creates an area from square micrometres.
    #[inline]
    pub const fn from_um2(um2: f64) -> Self {
        Self::from_base(um2)
    }

    /// Creates an area from square millimetres.
    #[inline]
    pub const fn from_mm2(mm2: f64) -> Self {
        Self::from_base(mm2 * 1.0e6)
    }

    /// Returns the area in square micrometres.
    #[inline]
    pub const fn as_um2(self) -> f64 {
        self.as_base()
    }

    /// Returns the area in square millimetres.
    #[inline]
    pub fn as_mm2(self) -> f64 {
        self.as_base() / 1.0e6
    }
}

impl Energy {
    /// Creates an energy from picojoules.
    #[inline]
    pub const fn from_pj(pj: f64) -> Self {
        Self::from_base(pj)
    }

    /// Creates an energy from nanojoules.
    #[inline]
    pub const fn from_nj(nj: f64) -> Self {
        Self::from_base(nj * 1.0e3)
    }

    /// Creates an energy from microjoules.
    #[inline]
    pub const fn from_uj(uj: f64) -> Self {
        Self::from_base(uj * 1.0e6)
    }

    /// Returns the energy in picojoules.
    #[inline]
    pub const fn as_pj(self) -> f64 {
        self.as_base()
    }

    /// Returns the energy in nanojoules.
    #[inline]
    pub fn as_nj(self) -> f64 {
        self.as_base() / 1.0e3
    }

    /// Returns the energy in microjoules.
    #[inline]
    pub fn as_uj(self) -> f64 {
        self.as_base() / 1.0e6
    }
}

impl Power {
    /// Creates a power from milliwatts.
    #[inline]
    pub const fn from_mw(mw: f64) -> Self {
        Self::from_base(mw)
    }

    /// Creates a power from microwatts.
    #[inline]
    pub const fn from_uw(uw: f64) -> Self {
        Self::from_base(uw / 1.0e3)
    }

    /// Creates a power from watts.
    #[inline]
    pub const fn from_w(w: f64) -> Self {
        Self::from_base(w * 1.0e3)
    }

    /// Returns the power in milliwatts.
    #[inline]
    pub const fn as_mw(self) -> f64 {
        self.as_base()
    }

    /// Returns the power in watts.
    #[inline]
    pub fn as_w(self) -> f64 {
        self.as_base() / 1.0e3
    }
}

impl Latency {
    /// Creates a latency from nanoseconds.
    #[inline]
    pub const fn from_ns(ns: f64) -> Self {
        Self::from_base(ns)
    }

    /// Creates a latency from microseconds.
    #[inline]
    pub const fn from_us(us: f64) -> Self {
        Self::from_base(us * 1.0e3)
    }

    /// Creates a latency from milliseconds.
    #[inline]
    pub const fn from_ms(ms: f64) -> Self {
        Self::from_base(ms * 1.0e6)
    }

    /// Creates a latency from a cycle count at the given clock frequency in
    /// megahertz.
    ///
    /// # Panics
    ///
    /// Panics if `freq_mhz` is not strictly positive.
    #[inline]
    pub fn from_cycles(cycles: u64, freq_mhz: f64) -> Self {
        assert!(freq_mhz > 0.0, "clock frequency must be positive");
        Self::from_base(cycles as f64 * 1.0e3 / freq_mhz)
    }

    /// Returns the latency in nanoseconds.
    #[inline]
    pub const fn as_ns(self) -> f64 {
        self.as_base()
    }

    /// Returns the latency in microseconds.
    #[inline]
    pub fn as_us(self) -> f64 {
        self.as_base() / 1.0e3
    }

    /// Returns the latency in milliseconds.
    #[inline]
    pub fn as_ms(self) -> f64 {
        self.as_base() / 1.0e6
    }
}

/// `Power × Latency = Energy` (mW × ns = pJ, conveniently 1:1 in base units).
impl Mul<Latency> for Power {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Latency) -> Energy {
        Energy::from_pj(self.as_mw() * rhs.as_ns())
    }
}

/// `Latency × Power = Energy` (commutative counterpart).
impl Mul<Power> for Latency {
    type Output = Energy;
    #[inline]
    fn mul(self, rhs: Power) -> Energy {
        rhs * self
    }
}

/// `Energy / Latency = Power`.
impl Div<Latency> for Energy {
    type Output = Power;
    #[inline]
    fn div(self, rhs: Latency) -> Power {
        Power::from_mw(self.as_pj() / rhs.as_ns())
    }
}

/// `Energy / Power = Latency`.
impl Div<Power> for Energy {
    type Output = Latency;
    #[inline]
    fn div(self, rhs: Power) -> Latency {
        Latency::from_ns(self.as_pj() / rhs.as_mw())
    }
}

impl fmt::Display for Area {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.as_um2() >= 1.0e5 {
            write!(f, "{:.4} mm²", self.as_mm2())
        } else {
            write!(f, "{:.3} µm²", self.as_um2())
        }
    }
}

impl fmt::Display for Energy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let pj = self.as_pj();
        if pj.abs() >= 1.0e6 {
            write!(f, "{:.4} µJ", self.as_uj())
        } else if pj.abs() >= 1.0e3 {
            write!(f, "{:.4} nJ", self.as_nj())
        } else {
            write!(f, "{pj:.4} pJ")
        }
    }
}

impl fmt::Display for Power {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mw = self.as_mw();
        if mw.abs() >= 1.0e3 {
            write!(f, "{:.4} W", self.as_w())
        } else if mw.abs() < 0.1 {
            write!(f, "{:.4} µW", mw * 1.0e3)
        } else {
            write!(f, "{mw:.4} mW")
        }
    }
}

impl fmt::Display for Latency {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.as_ns();
        if ns.abs() >= 1.0e6 {
            write!(f, "{:.4} ms", self.as_ms())
        } else if ns.abs() >= 1.0e3 {
            write!(f, "{:.4} µs", self.as_us())
        } else {
            write!(f, "{ns:.4} ns")
        }
    }
}

/// Energy-delay product: a dimensionless figure of merit in base units
/// (pJ·ns). Exposed as a plain function because the product of two different
/// quantities does not fit the newtype algebra above.
///
/// # Example
///
/// ```
/// use pim_device::units::{edp, Energy, Latency};
/// let e = edp(Energy::from_pj(10.0), Latency::from_ns(2.0));
/// assert_eq!(e, 20.0);
/// ```
#[inline]
pub fn edp(energy: Energy, delay: Latency) -> f64 {
    energy.as_pj() * delay.as_ns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn area_conversions_round_trip() {
        let a = Area::from_mm2(0.268);
        assert!((a.as_mm2() - 0.268).abs() < 1e-12);
        assert!((a.as_um2() - 268_000.0).abs() < 1e-6);
    }

    #[test]
    fn energy_conversions_round_trip() {
        let e = Energy::from_nj(1.5);
        assert!((e.as_pj() - 1500.0).abs() < 1e-9);
        assert!((e.as_uj() - 0.0015).abs() < 1e-12);
    }

    #[test]
    fn power_times_latency_is_energy() {
        let p = Power::from_mw(2.0);
        let t = Latency::from_us(1.0);
        let e = p * t;
        assert!((e.as_nj() - 2.0).abs() < 1e-9);
        // Commutative form agrees.
        assert_eq!(e, t * p);
    }

    #[test]
    fn energy_divided_by_latency_is_power() {
        let e = Energy::from_pj(100.0);
        let t = Latency::from_ns(50.0);
        let p = e / t;
        assert!((p.as_mw() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn energy_divided_by_power_is_latency() {
        let e = Energy::from_pj(100.0);
        let p = Power::from_mw(4.0);
        assert!((e / p).as_ns() - 25.0 < 1e-12);
    }

    #[test]
    fn latency_from_cycles_uses_frequency() {
        // 1000 cycles @ 1 GHz = 1 µs.
        let t = Latency::from_cycles(1000, 1000.0);
        assert!((t.as_us() - 1.0).abs() < 1e-12);
        // 100 cycles @ 500 MHz = 200 ns.
        let t = Latency::from_cycles(100, 500.0);
        assert!((t.as_ns() - 200.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "clock frequency must be positive")]
    fn latency_from_cycles_rejects_zero_frequency() {
        let _ = Latency::from_cycles(1, 0.0);
    }

    #[test]
    fn sum_accumulates() {
        let total: Energy = (0..10).map(|i| Energy::from_pj(i as f64)).sum();
        assert!((total.as_pj() - 45.0).abs() < 1e-12);
    }

    #[test]
    fn scaling_by_count() {
        let e = Energy::from_pj(0.048) * 512.0;
        assert!((e.as_pj() - 24.576).abs() < 1e-12);
        let e2 = 512.0 * Energy::from_pj(0.048);
        assert_eq!(e, e2);
    }

    #[test]
    fn ratio_is_dimensionless() {
        let a = Area::from_mm2(0.5);
        let b = Area::from_mm2(0.25);
        assert!((a.ratio(b) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn display_selects_sensible_units() {
        assert_eq!(format!("{}", Energy::from_pj(3.5)), "3.5000 pJ");
        assert_eq!(format!("{}", Energy::from_nj(2.0)), "2.0000 nJ");
        assert_eq!(format!("{}", Latency::from_us(3.0)), "3.0000 µs");
        assert_eq!(format!("{}", Power::from_w(1.5)), "1.5000 W");
    }

    #[test]
    fn min_max_behave() {
        let a = Latency::from_ns(5.0);
        let b = Latency::from_ns(9.0);
        assert_eq!(a.max(b), b);
        assert_eq!(a.min(b), a);
    }

    #[test]
    fn edp_multiplies_base_units() {
        assert_eq!(edp(Energy::from_pj(3.0), Latency::from_ns(4.0)), 12.0);
    }
}
