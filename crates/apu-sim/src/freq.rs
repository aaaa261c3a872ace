//! DVFS frequency tables and package frequency settings.
//!
//! The evaluation platform exposes 16 CPU P-states from 1.2 GHz to 3.6 GHz
//! and 10 GPU frequency levels from 350 MHz to 1.25 GHz (paper, Section VI).
//! Schedulers work with *level indices*; the tables map them to GHz.

use crate::device::{Device, PerDevice};

/// An index into a device's frequency table. Level 0 is the lowest frequency.
pub type FreqLevel = usize;

/// The frequency ladder of one device.
#[derive(Debug, Clone, PartialEq)]
pub struct FreqTable {
    levels_ghz: Vec<f64>,
}

impl FreqTable {
    /// Build a table with `n` levels linearly spaced over `[lo_ghz, hi_ghz]`.
    ///
    /// # Panics
    /// Panics if `n < 2` or the range is not positive and increasing.
    pub fn linear(lo_ghz: f64, hi_ghz: f64, n: usize) -> Self {
        assert!(n >= 2, "a frequency table needs at least two levels");
        assert!(lo_ghz > 0.0 && hi_ghz > lo_ghz, "invalid frequency range");
        let step = (hi_ghz - lo_ghz) / (n - 1) as f64;
        let levels_ghz = (0..n).map(|i| lo_ghz + step * i as f64).collect();
        FreqTable { levels_ghz }
    }

    /// Build a table from explicit levels (must be strictly increasing).
    pub fn from_levels(levels_ghz: Vec<f64>) -> Self {
        assert!(levels_ghz.len() >= 2);
        assert!(
            levels_ghz.windows(2).all(|w| w[0] < w[1]),
            "levels must be strictly increasing"
        );
        FreqTable { levels_ghz }
    }

    /// Number of levels.
    #[inline]
    pub fn len(&self) -> usize {
        self.levels_ghz.len()
    }

    /// Tables are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Frequency in GHz at `level`.
    ///
    /// # Panics
    /// Panics if `level` is out of range.
    #[inline]
    pub fn ghz(&self, level: FreqLevel) -> f64 {
        self.levels_ghz[level]
    }

    /// Index of the highest level.
    #[inline]
    pub fn max_level(&self) -> FreqLevel {
        self.levels_ghz.len() - 1
    }

    /// The highest frequency in GHz.
    #[inline]
    pub fn max_ghz(&self) -> f64 {
        *self.levels_ghz.last().expect("non-empty")
    }

    /// The lowest frequency in GHz.
    #[inline]
    pub fn min_ghz(&self) -> f64 {
        self.levels_ghz[0]
    }

    /// Relative frequency `f / f_max` at `level` (used by the power model).
    #[inline]
    pub fn rel(&self, level: FreqLevel) -> f64 {
        self.ghz(level) / self.max_ghz()
    }

    /// Iterate over `(level, ghz)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (FreqLevel, f64)> + '_ {
        self.levels_ghz.iter().copied().enumerate()
    }

    /// The level whose frequency is closest to `ghz`.
    pub fn nearest_level(&self, ghz: f64) -> FreqLevel {
        let mut best = 0;
        let mut best_d = f64::INFINITY;
        for (i, f) in self.iter() {
            let d = (f - ghz).abs();
            if d < best_d {
                best_d = d;
                best = i;
            }
        }
        best
    }
}

/// A package-wide frequency setting: one level per device.
///
/// On the integrated package the CPU complex and the GPU each have a single
/// clock domain, so a schedule associates every (co-)run segment with one
/// `FreqSetting`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FreqSetting {
    /// CPU frequency level index.
    pub cpu: FreqLevel,
    /// GPU frequency level index.
    pub gpu: FreqLevel,
}

impl FreqSetting {
    /// Construct from explicit levels.
    pub fn new(cpu: FreqLevel, gpu: FreqLevel) -> Self {
        FreqSetting { cpu, gpu }
    }

    /// The level for `device`.
    #[inline]
    pub fn level(&self, device: Device) -> FreqLevel {
        match device {
            Device::Cpu => self.cpu,
            Device::Gpu => self.gpu,
        }
    }

    /// Replace the level for `device`, returning the new setting.
    #[must_use]
    pub fn with_level(mut self, device: Device, level: FreqLevel) -> Self {
        match device {
            Device::Cpu => self.cpu = level,
            Device::Gpu => self.gpu = level,
        }
        self
    }

    /// Both levels as a [`PerDevice`].
    pub fn per_device(&self) -> PerDevice<FreqLevel> {
        PerDevice::new(self.cpu, self.gpu)
    }
}

impl std::fmt::Display for FreqSetting {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "(cpu:L{}, gpu:L{})", self.cpu, self.gpu)
    }
}

/// Frequency tables for both devices of a package.
#[derive(Debug, Clone, PartialEq)]
pub struct PackageFreqs {
    pub cpu: FreqTable,
    pub gpu: FreqTable,
}

impl PackageFreqs {
    /// The table for `device`.
    #[inline]
    pub fn table(&self, device: Device) -> &FreqTable {
        match device {
            Device::Cpu => &self.cpu,
            Device::Gpu => &self.gpu,
        }
    }

    /// GHz of `device` at the level selected in `setting`.
    #[inline]
    pub fn ghz(&self, device: Device, setting: FreqSetting) -> f64 {
        self.table(device).ghz(setting.level(device))
    }

    /// The setting with both devices at their highest level.
    pub fn max_setting(&self) -> FreqSetting {
        FreqSetting::new(self.cpu.max_level(), self.gpu.max_level())
    }

    /// The setting with both devices at their lowest level.
    pub fn min_setting(&self) -> FreqSetting {
        FreqSetting::new(0, 0)
    }

    /// Iterate over every possible `FreqSetting` (the K_cpu x K_gpu grid).
    pub fn all_settings(&self) -> impl Iterator<Item = FreqSetting> + '_ {
        (0..self.cpu.len())
            .flat_map(move |c| (0..self.gpu.len()).map(move |g| FreqSetting::new(c, g)))
    }

    /// Total number of settings in the grid.
    pub fn setting_count(&self) -> usize {
        self.cpu.len() * self.gpu.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tables() -> PackageFreqs {
        PackageFreqs {
            cpu: FreqTable::linear(1.2, 3.6, 16),
            gpu: FreqTable::linear(0.35, 1.25, 10),
        }
    }

    #[test]
    fn linear_table_endpoints() {
        let t = FreqTable::linear(1.2, 3.6, 16);
        assert_eq!(t.len(), 16);
        assert!((t.min_ghz() - 1.2).abs() < 1e-12);
        assert!((t.max_ghz() - 3.6).abs() < 1e-12);
        assert_eq!(t.max_level(), 15);
    }

    #[test]
    fn linear_table_monotone() {
        let t = FreqTable::linear(0.35, 1.25, 10);
        let v: Vec<f64> = t.iter().map(|(_, g)| g).collect();
        assert!(v.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn rel_is_one_at_max() {
        let t = FreqTable::linear(1.2, 3.6, 16);
        assert!((t.rel(t.max_level()) - 1.0).abs() < 1e-12);
        assert!((t.rel(0) - 1.2 / 3.6).abs() < 1e-12);
    }

    #[test]
    fn nearest_level_roundtrip() {
        let t = FreqTable::linear(1.2, 3.6, 16);
        for (i, g) in t.iter() {
            assert_eq!(t.nearest_level(g), i);
        }
        assert_eq!(t.nearest_level(0.0), 0);
        assert_eq!(t.nearest_level(99.0), 15);
    }

    #[test]
    #[should_panic]
    fn table_requires_two_levels() {
        let _ = FreqTable::linear(1.0, 2.0, 1);
    }

    #[test]
    #[should_panic]
    fn from_levels_rejects_non_increasing() {
        let _ = FreqTable::from_levels(vec![1.0, 1.0, 2.0]);
    }

    #[test]
    fn setting_grid_covers_all() {
        let p = tables();
        assert_eq!(p.setting_count(), 160);
        assert_eq!(p.all_settings().count(), 160);
        let max = p.max_setting();
        assert_eq!(max.cpu, 15);
        assert_eq!(max.gpu, 9);
    }

    #[test]
    fn setting_with_level() {
        let s = FreqSetting::new(3, 4);
        let s2 = s.with_level(Device::Cpu, 7);
        assert_eq!(s2.cpu, 7);
        assert_eq!(s2.gpu, 4);
        assert_eq!(s2.level(Device::Gpu), 4);
    }

    #[test]
    fn package_ghz_lookup() {
        let p = tables();
        let s = p.max_setting();
        assert!((p.ghz(Device::Cpu, s) - 3.6).abs() < 1e-12);
        assert!((p.ghz(Device::Gpu, s) - 1.25).abs() < 1e-12);
    }
}
