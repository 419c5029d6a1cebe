//! The student population and device inventory.
//!
//! Each student gets a sub-population label (domestic/international), a
//! departure decision (stay on campus post-shutdown, or leave on a day
//! sampled from the mid-March exodus), and a set of devices with real
//! vendor OUIs, operating systems, and observation quirks (randomized
//! MACs, silent User-Agents) that feed the classifier's error model.
//!
//! Every resident draws all of its attributes from a private RNG stream
//! (`rng_for(seed, Population, s, 0)`) and every visitor from its own
//! (`rng_for(seed, Population, v, 1)`), so any contiguous range of
//! students can be realized independently of the rest of the campus.
//! That independence is the seam the sharding layer
//! ([`crate::shard::PopulationPlan`]) is built on: a shard's slice of
//! the population is bit-identical to the same slice of the full build.

use crate::config::{
    SimConfig, DEFAULT_DOMESTIC_STAY_RATE, DEFAULT_INTL_FRACTION, DEFAULT_INTL_STAY_RATE,
};
use crate::rng::{self, SmallRng, Stream};
use crate::scenario::{PolicySpec, WaveSpec};
use devclass::{DeviceType, OuiDb, VendorClass};
use geoloc::SubPop;
use nettrace::time::Day;
use nettrace::{DeviceId, MacAddr, Oui};

/// Ground-truth device kinds the generator knows.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TrueKind {
    /// Smartphone (iOS or Android).
    Phone,
    /// Laptop.
    Laptop,
    /// Desktop.
    Desktop,
    /// IoT gadget (speaker, TV stick, plug, bulb, …).
    Iot,
    /// Nintendo Switch.
    Switch,
    /// Companion device with no classifiable footprint (tablet in
    /// desktop-UA mode, e-reader, device behind a randomized MAC that
    /// never speaks cleartext HTTP). These are what the paper suspects
    /// its "unclassified" devices are.
    Companion,
}

impl TrueKind {
    /// The device type an ideal classifier would assign.
    pub fn true_type(self) -> DeviceType {
        match self {
            TrueKind::Phone => DeviceType::Mobile,
            TrueKind::Laptop | TrueKind::Desktop => DeviceType::LaptopDesktop,
            TrueKind::Iot => DeviceType::Iot,
            TrueKind::Switch => DeviceType::Console,
            // Companions are genuinely mobile/desktop-class hardware; the
            // audit scores an Unclassified verdict on them as an omission.
            TrueKind::Companion => DeviceType::Mobile,
        }
    }
}

/// Mobile/desktop operating system of a device (drives UA strings).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeviceOs {
    /// Apple iOS.
    Ios,
    /// Android.
    Android,
    /// Microsoft Windows.
    Windows,
    /// Apple macOS.
    MacOs,
    /// Desktop Linux.
    Linux,
    /// Device has no browser OS (IoT firmware, consoles, companions).
    None,
}

/// One device in the study.
#[derive(Debug, Clone)]
pub struct Device {
    /// Dense device index (stable across runs with the same config, and
    /// *global* across shards: a sharded build assigns the same indices
    /// as the monolithic build).
    pub index: u32,
    /// Hardware address.
    pub mac: MacAddr,
    /// Anonymized identifier, as the pipeline sees it.
    pub id: DeviceId,
    /// Ground-truth kind.
    pub kind: TrueKind,
    /// Operating system (for UA synthesis).
    pub os: DeviceOs,
    /// True when the MAC is randomized (locally administered).
    pub randomized_mac: bool,
    /// True when the device emits observable User-Agent strings.
    pub ua_visible: bool,
    /// Index of the owning student (global across shards).
    pub owner: u32,
    /// Multiplicative volume factor (log-normal per device, with a
    /// heavy-tail boost on a few IoT/companion devices — the cause of the
    /// paper's mean ≫ median observation in Figure 2).
    pub volume_factor: f64,
    /// For Switches acquired mid-study (the paper's "40 new Switches"):
    /// the day the console first comes online.
    pub acquired: Option<Day>,
}

/// One student.
#[derive(Debug, Clone)]
pub struct Student {
    /// Dense student index (global across shards).
    pub index: u32,
    /// Sub-population ground truth.
    pub subpop: SubPop,
    /// First day on campus (Day(0) for residents; later for visitors).
    pub arrives: Day,
    /// `None` = stays on campus all study (post-shutdown user);
    /// `Some(d)` = last day on campus before departing.
    pub departs: Option<Day>,
    /// Day the student comes back after departing, for scenarios whose
    /// departure wave reopens (`None` for the paper timeline: nobody
    /// returned in spring 2020).
    pub returns: Option<Day>,
    /// Global device indices owned by this student.
    pub devices: Vec<u32>,
    /// Is this student a PC gamer (owns/plays Steam)?
    pub steam_gamer: bool,
    /// Leisure engagement factor (log-normal, median 1).
    pub leisure_factor: f64,
    /// True for campus *visitors* (weekend guests, tour groups): short
    /// windows of presence that the pipeline's 14-day filter must remove
    /// (§3). Visitors were forbidden once the lock-down began.
    pub visitor: bool,
}

impl Student {
    /// Is the student on campus on `day`?
    pub fn on_campus(&self, day: Day) -> bool {
        if day < self.arrives {
            return false;
        }
        match self.departs {
            None => true,
            Some(d) => day <= d || self.returns.is_some_and(|r| day >= r),
        }
    }

    /// Is the student a post-shutdown user (present after the stay-at-home
    /// order through end of study)?
    pub fn stays(&self) -> bool {
        self.departs.is_none()
    }
}

/// The campus — the whole of it (monolithic [`Population::build`], or a
/// one-shard plan), or one shard's slice of it.
///
/// A sharded population keeps *global* student and device indices in its
/// entries while holding only its own slice of the vectors, so indexed
/// lookups must go through [`student`](Population::student) and
/// [`device`](Population::device), which translate global indices to
/// local slots. For a monolithic build both bases are zero and the
/// translation is the identity.
#[derive(Debug)]
pub struct Population {
    /// The students of this (sub-)population, in global index order.
    pub students: Vec<Student>,
    /// The devices of this (sub-)population, in global index order.
    pub devices: Vec<Device>,
    /// Global index of `students[0]`.
    pub(crate) student_base: u32,
    /// Global index of `devices[0]`.
    pub(crate) device_base: u32,
}

/// Per-kind device prevalence for leavers and stayers. Stayers carry more
/// gear (they live here); the asymmetry calibrates the post-shutdown
/// device mix in which unclassified devices dominate counts (Figure 1).
struct Prevalence {
    phone: f64,
    laptop: f64,
    desktop: f64,
    iot_mean: f64,
    switch_: f64,
    companion_mean: f64,
}

const LEAVER: Prevalence = Prevalence {
    phone: 0.96,
    laptop: 0.92,
    desktop: 0.08,
    iot_mean: 0.24,
    switch_: 0.084,
    companion_mean: 0.22,
};

const STAYER: Prevalence = Prevalence {
    phone: 0.96,
    laptop: 0.93,
    desktop: 0.14,
    iot_mean: 0.55,
    switch_: 0.13,
    companion_mean: 1.35,
};

/// Resolved population knobs plus the OUI pools: everything the
/// per-student realizers need besides the student index. Built once per
/// build/plan and shared across shards.
pub(crate) struct PopulationEnv {
    seed: u64,
    anon_key: u64,
    policy: PolicySpec,
    intl_fraction: f64,
    domestic_stay_rate: f64,
    intl_stay_rate: f64,
    multi_wave: bool,
    any_returns: bool,
    total_wave_fraction: f64,
    mobile_ouis: Vec<Oui>,
    computer_ouis: Vec<Oui>,
    iot_ouis: Vec<Oui>,
    ambiguous_ouis: Vec<Oui>,
    nintendo_ouis: Vec<Oui>,
    n_residents: usize,
    n_visitors: usize,
}

impl PopulationEnv {
    pub(crate) fn new(cfg: &SimConfig) -> PopulationEnv {
        let scenario = &cfg.scenario;
        let intl_fraction = scenario
            .population
            .intl_fraction
            .unwrap_or(DEFAULT_INTL_FRACTION);
        let domestic_stay_rate = scenario
            .population
            .domestic_stay_rate
            .unwrap_or(DEFAULT_DOMESTIC_STAY_RATE);
        let intl_stay_rate = scenario
            .population
            .intl_stay_rate
            .unwrap_or(DEFAULT_INTL_STAY_RATE);
        let multi_wave = scenario.policy.waves.len() > 1;
        let any_returns = scenario.policy.waves.iter().any(|w| w.return_day.is_some());
        let total_wave_fraction: f64 = scenario.policy.waves.iter().map(|w| w.fraction).sum();
        let oui_db = OuiDb::builtin();
        let nintendo_ouis: Vec<Oui> = oui_db
            .ouis_of_class(VendorClass::Console)
            .into_iter()
            .filter(|o| {
                matches!(
                    oui_db.lookup(*o).map(|v| v.name),
                    Some(name) if name.contains("Nintendo")
                )
            })
            .collect();
        let n_residents = cfg.num_students();
        let n_visitors = (n_residents as f64 * 0.30).round() as usize;
        PopulationEnv {
            seed: cfg.seed,
            anon_key: cfg.anon_key,
            intl_fraction,
            domestic_stay_rate,
            intl_stay_rate,
            multi_wave,
            any_returns,
            total_wave_fraction,
            mobile_ouis: oui_db.ouis_of_class(VendorClass::Mobile),
            computer_ouis: oui_db.ouis_of_class(VendorClass::Computer),
            iot_ouis: oui_db.ouis_of_class(VendorClass::Iot),
            ambiguous_ouis: oui_db.ouis_of_class(VendorClass::Ambiguous),
            nintendo_ouis,
            n_residents,
            n_visitors,
            policy: scenario.policy.clone(),
        }
    }

    /// Number of resident students.
    pub(crate) fn n_residents(&self) -> usize {
        self.n_residents
    }

    /// Number of campus visitors.
    pub(crate) fn n_visitors(&self) -> usize {
        self.n_visitors
    }

    /// Realize resident `s` from its private RNG stream. `device_base`
    /// is the global index the resident's first device gets; the draw
    /// sequence never depends on it, so the same resident realizes
    /// identical attribute values whether built monolithically or
    /// inside a shard. Returned devices are in emit order.
    pub(crate) fn realize_resident(&self, s: usize, device_base: u32) -> (Student, Vec<Device>) {
        let policy = &self.policy;
        let mut rng = rng::rng_for(self.seed, Stream::Population, s as u64, 0);
        let subpop = if rng.f64() < self.intl_fraction {
            SubPop::International
        } else {
            SubPop::Domestic
        };
        let stay_rate = match subpop {
            SubPop::Domestic => self.domestic_stay_rate,
            SubPop::International => self.intl_stay_rate,
        };
        // Draw unconditionally so the counterfactual twin consumes
        // the same RNG stream and realizes a bit-identical
        // population: one departure-day sample per wave, a
        // wave-selection draw only when there is more than one wave,
        // and a return draw only when any wave reopens. None of
        // these depend on whether departures are *enabled*.
        let stay_draw = rng.f64();
        let wave_days: Vec<Day> = policy
            .waves
            .iter()
            .map(|w| sample_wave_day(&mut rng, w))
            .collect();
        let wave_idx = if self.multi_wave {
            let pick = rng.f64() * self.total_wave_fraction;
            let mut acc = 0.0;
            let mut idx = policy.waves.len() - 1;
            for (i, w) in policy.waves.iter().enumerate() {
                acc += w.fraction;
                if pick < acc {
                    idx = i;
                    break;
                }
            }
            idx
        } else {
            0
        };
        let return_draw = if self.any_returns { rng.f64() } else { 1.0 };
        let departs = if !policy.departures || stay_draw < stay_rate || wave_days.is_empty() {
            None
        } else {
            Some(wave_days[wave_idx])
        };
        let returns = match (departs, policy.waves.get(wave_idx)) {
            (Some(_), Some(w)) => w
                .return_day
                .filter(|_| return_draw < w.return_fraction)
                .map(Day),
            _ => None,
        };
        // Keyed on the run-invariant stay *draw*, not on realized
        // departure: device ownership is a selection effect (students
        // with more gear in the dorm were likelier to stay), so the
        // 2019 counterfactual realizes the identical inventory.
        let prev = if stay_draw < stay_rate {
            &STAYER
        } else {
            &LEAVER
        };
        let steam_gamer = rng.f64()
            < match subpop {
                SubPop::Domestic => 0.52,
                SubPop::International => 0.72,
            };
        let leisure_factor = rng::lognormal_med(&mut rng, 1.0, 0.45);

        let mut devices: Vec<Device> = Vec::new();
        let mut my_devices = Vec::new();
        let add = |kind: TrueKind,
                   devices: &mut Vec<Device>,
                   my: &mut Vec<u32>,
                   rng: &mut SmallRng,
                   acquired: Option<Day>| {
            let index = device_base + devices.len() as u32;
            let (oui, os, randomized, ua_visible) = match kind {
                TrueKind::Phone => {
                    let ios = rng.f64() < 0.55;
                    let oui = if ios {
                        self.ambiguous_ouis[rng.gen_range(0..self.ambiguous_ouis.len())]
                    } else {
                        self.mobile_ouis[rng.gen_range(0..self.mobile_ouis.len())]
                    };
                    // A sliver of phones browse in desktop-site mode:
                    // their UA claims a desktop OS, producing the
                    // paper's rare *affirmative* misclassifications.
                    let os = if rng.f64() < 0.03 {
                        DeviceOs::Windows
                    } else if ios {
                        DeviceOs::Ios
                    } else {
                        DeviceOs::Android
                    };
                    // Modern phones randomize WiFi MACs ~40% of the time
                    // in this era; most still emit UAs via app traffic.
                    (oui, os, rng.f64() < 0.40, rng.f64() < 0.84)
                }
                TrueKind::Laptop => {
                    let mac_book = rng.f64() < 0.45;
                    let oui = if mac_book {
                        self.ambiguous_ouis[rng.gen_range(0..self.ambiguous_ouis.len())]
                    } else {
                        self.computer_ouis[rng.gen_range(0..self.computer_ouis.len())]
                    };
                    let os = if mac_book {
                        DeviceOs::MacOs
                    } else if rng.f64() < 0.92 {
                        DeviceOs::Windows
                    } else {
                        DeviceOs::Linux
                    };
                    (oui, os, rng.f64() < 0.08, rng.f64() < 0.85)
                }
                TrueKind::Desktop => {
                    let oui = self.computer_ouis[rng.gen_range(0..self.computer_ouis.len())];
                    (oui, DeviceOs::Windows, false, rng.f64() < 0.85)
                }
                TrueKind::Iot => {
                    let oui = self.iot_ouis[rng.gen_range(0..self.iot_ouis.len())];
                    (oui, DeviceOs::None, false, false)
                }
                TrueKind::Switch => {
                    let oui = self.nintendo_ouis[rng.gen_range(0..self.nintendo_ouis.len())];
                    (oui, DeviceOs::None, false, false)
                }
                TrueKind::Companion => {
                    // Tablets/e-readers: ambiguous vendor or randomized
                    // address. A quarter browse with a recognizable
                    // mobile UA (classifiable tablets); the rest never
                    // speak observable HTTP — the paper's conservative
                    // "unknown" devices.
                    let oui = self.ambiguous_ouis[rng.gen_range(0..self.ambiguous_ouis.len())];
                    let tablet_ua = rng.f64() < 0.18;
                    let os = if tablet_ua {
                        DeviceOs::Ios
                    } else {
                        DeviceOs::None
                    };
                    (oui, os, rng.f64() < 0.6, tablet_ua)
                }
            };
            let mut mac = MacAddr::from_oui_suffix(oui, index);
            if randomized {
                // Set the locally-administered bit, as OS randomization
                // does; the original OUI is no longer meaningful.
                let mut octets = mac.0;
                octets[0] |= 0x02;
                octets[1] ^= (index >> 3) as u8; // decouple from vendor
                mac = MacAddr(octets);
            }
            // Device-level volume heterogeneity; a few IoT/companion
            // devices are extreme (always-on cameras, seed boxes).
            let mut volume_factor = rng::lognormal_med(rng, 1.0, 0.55);
            if matches!(kind, TrueKind::Iot | TrueKind::Companion) && rng.f64() < 0.03 {
                volume_factor *= rng.gen_range(80.0..400.0);
            }
            devices.push(Device {
                index,
                mac,
                id: DeviceId::anonymize(mac, self.anon_key),
                kind,
                os,
                randomized_mac: randomized,
                ua_visible,
                owner: s as u32,
                volume_factor,
                acquired,
            });
            my.push(index);
        };

        if rng.f64() < prev.phone {
            add(
                TrueKind::Phone,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        }
        if rng.f64() < prev.laptop {
            add(
                TrueKind::Laptop,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        }
        if rng.f64() < prev.desktop {
            add(
                TrueKind::Desktop,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        }
        for _ in 0..rng::poisson(&mut rng, prev.iot_mean) {
            add(TrueKind::Iot, &mut devices, &mut my_devices, &mut rng, None);
        }
        let has_switch = rng.f64() < prev.switch_;
        let buys_switch = rng.f64() < 0.028;
        let buy_day = Day(rng.gen_range(policy.console_buy_start..policy.console_buy_end));
        if has_switch {
            add(
                TrueKind::Switch,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        } else if stay_draw < stay_rate && buys_switch {
            // Lock-down console purchases (Animal Crossing effect,
            // §5.3.2): a new Switch appears inside the scenario's buy
            // window. The branch condition must not depend on whether
            // acquisitions are *enabled*, so the counterfactual
            // realizes the identical device list (there the console
            // simply exists all along).
            let acquired = policy.console_acquisitions.then_some(buy_day);
            add(
                TrueKind::Switch,
                &mut devices,
                &mut my_devices,
                &mut rng,
                acquired,
            );
        }
        for _ in 0..rng::poisson(&mut rng, prev.companion_mean) {
            add(
                TrueKind::Companion,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        }
        // Everyone has at least a phone: guarantee non-empty inventory.
        if my_devices.is_empty() {
            add(
                TrueKind::Phone,
                &mut devices,
                &mut my_devices,
                &mut rng,
                None,
            );
        }

        let student = Student {
            index: s as u32,
            subpop,
            arrives: Day(0),
            departs,
            returns,
            devices: my_devices,
            steam_gamer,
            leisure_factor,
            visitor: false,
        };
        (student, devices)
    }

    /// Realize visitor `v` from its private RNG stream. `s_index` is the
    /// visitor's global student index (`n_residents + v`) and
    /// `device_base` the global index of its first device; neither
    /// affects the draw sequence.
    pub(crate) fn realize_visitor(
        &self,
        v: usize,
        s_index: u32,
        device_base: u32,
    ) -> (Student, Vec<Device>) {
        // Campus visitors: short-stay guests whose devices appear for a
        // few days and must be discarded by the §3 visitor filter. The
        // lock-down banned visitors, so every window ends at the
        // scenario's visitor cut-off (the stay-at-home order in the
        // paper timeline).
        let policy = &self.policy;
        let mut rng = rng::rng_for(self.seed, Stream::Population, v as u64, 1);
        let arrive = Day(rng.gen_range(0..42));
        let stay_days: u16 = 1 + rng.gen_range(0..6);
        let depart = Day((arrive.0 + stay_days).min(policy.visitor_cutoff));
        let mut devices: Vec<Device> = Vec::new();
        let mut my_devices = Vec::new();
        // Visitors bring a phone; a third also carry a laptop.
        let phone_ios = rng.f64() < 0.55;
        let (oui, os) = if phone_ios {
            (
                self.ambiguous_ouis[rng.gen_range(0..self.ambiguous_ouis.len())],
                DeviceOs::Ios,
            )
        } else {
            (
                self.mobile_ouis[rng.gen_range(0..self.mobile_ouis.len())],
                DeviceOs::Android,
            )
        };
        let mut push_visitor_device =
            |kind: TrueKind, oui: Oui, os: DeviceOs, rng: &mut SmallRng| {
                let index = device_base + devices.len() as u32;
                let randomized = rng.f64() < 0.5;
                let mut mac = MacAddr::from_oui_suffix(oui, 0x40_0000 + index);
                if randomized {
                    let mut octets = mac.0;
                    octets[0] |= 0x02;
                    mac = MacAddr(octets);
                }
                devices.push(Device {
                    index,
                    mac,
                    id: DeviceId::anonymize(mac, self.anon_key),
                    kind,
                    os,
                    randomized_mac: randomized,
                    ua_visible: rng.f64() < 0.6,
                    owner: s_index,
                    volume_factor: rng::lognormal_med(rng, 1.0, 0.5),
                    acquired: None,
                });
                my_devices.push(index);
            };
        push_visitor_device(TrueKind::Phone, oui, os, &mut rng);
        if rng.f64() < 0.33 {
            let oui = self.computer_ouis[rng.gen_range(0..self.computer_ouis.len())];
            push_visitor_device(TrueKind::Laptop, oui, DeviceOs::Windows, &mut rng);
        }
        let student = Student {
            index: s_index,
            subpop: SubPop::Domestic,
            arrives: arrive,
            departs: Some(depart),
            returns: None,
            devices: my_devices,
            steam_gamer: false,
            leisure_factor: rng::lognormal_med(&mut rng, 1.0, 0.4),
            visitor: true,
        };
        (student, devices)
    }
}

impl Population {
    /// Build the whole population for `cfg`. Deterministic in `cfg.seed`.
    ///
    /// Population structure is driven by the config's [`Scenario`]: its
    /// policy block decides whether departures happen at all, which
    /// wave(s) students leave in and whether they come back, the console
    /// acquisition window, and the visitor cut-off; its population block
    /// may override the config's enrollment mix. The per-student RNG
    /// draw sequence depends only on the wave *structure* (never on
    /// realized outcomes), so a scenario and its counterfactual twin —
    /// which keeps the same waves with `departures = false` — build
    /// bit-identical device inventories.
    ///
    /// For memory-bounded builds of large campuses, partition the same
    /// population into independently buildable shards with
    /// [`PopulationPlan`](crate::shard::PopulationPlan) instead.
    ///
    /// [`Scenario`]: crate::scenario::Scenario
    pub fn build(cfg: &SimConfig) -> Population {
        Self::build_full(&PopulationEnv::new(cfg))
    }

    /// The monolithic build: all residents, then all visitors.
    pub(crate) fn build_full(env: &PopulationEnv) -> Population {
        let n = env.n_residents();
        let mut students = Vec::with_capacity(n + env.n_visitors());
        let mut devices: Vec<Device> = Vec::new();
        for s in 0..n {
            let (student, devs) = env.realize_resident(s, devices.len() as u32);
            students.push(student);
            devices.extend(devs);
        }
        for v in 0..env.n_visitors() {
            let s_index = students.len() as u32;
            let (student, devs) = env.realize_visitor(v, s_index, devices.len() as u32);
            students.push(student);
            devices.extend(devs);
        }
        Population {
            students,
            devices,
            student_base: 0,
            device_base: 0,
        }
    }

    /// Assemble a (sub-)population from pre-realized parts. Internal to
    /// the shard planner.
    pub(crate) fn from_parts(
        students: Vec<Student>,
        devices: Vec<Device>,
        student_base: u32,
        device_base: u32,
    ) -> Population {
        Population {
            students,
            devices,
            student_base,
            device_base,
        }
    }

    /// Global index of `students[0]` (0 for a monolithic build).
    pub fn student_base(&self) -> u32 {
        self.student_base
    }

    /// Global index of `devices[0]` (0 for a monolithic build).
    pub fn device_base(&self) -> u32 {
        self.device_base
    }

    /// The student with *global* index `index`. Panics if the student
    /// is not part of this (sub-)population.
    pub fn student(&self, index: u32) -> &Student {
        &self.students[(index - self.student_base) as usize]
    }

    /// The device with *global* index `index`. Panics if the device is
    /// not part of this (sub-)population.
    pub fn device(&self, index: u32) -> &Device {
        &self.devices[(index - self.device_base) as usize]
    }

    /// Devices owned by post-shutdown (staying) students, excluding
    /// consoles acquired later than the study start.
    pub fn post_shutdown_devices(&self) -> Vec<&Device> {
        self.devices
            .iter()
            .filter(|d| self.student(d.owner).stays())
            .collect()
    }

    /// The owning student of a device.
    pub fn owner_of(&self, d: &Device) -> &Student {
        self.student(d.owner)
    }

    /// Is `device` present on campus on `day`? (Owner present, and the
    /// device already acquired.)
    pub fn device_present(&self, device: &Device, day: Day) -> bool {
        if let Some(acq) = device.acquired {
            if day < acq {
                return false;
            }
        }
        self.student(device.owner).on_campus(day)
    }
}

/// Sample a departure day from one scenario wave: a triangular
/// distribution over `[start, end]` peaking at `peak`. For the paper's
/// single wave (Mar 8 .. Mar 24, peak Mar 15) this reproduces the
/// original mid-March exodus sampler draw-for-draw (§4: "students
/// started leaving campus even before classes became fully remote").
fn sample_wave_day(rng: &mut SmallRng, wave: &WaveSpec) -> Day {
    let a = wave.start as f64;
    let c = wave.peak as f64;
    let b = wave.end as f64;
    let u = rng.f64();
    let fc = (c - a) / (b - a);
    let d = if u < fc {
        a + (u * (b - a) * (c - a)).sqrt()
    } else {
        b - ((1.0 - u) * (b - a) * (b - c)).sqrt()
    };
    Day(d.round().clamp(a, b) as u16)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::Scenario;

    fn small_cfg() -> SimConfig {
        SimConfig {
            scale: 0.05,
            ..Default::default()
        }
    }

    #[test]
    fn visitors_are_short_stay_and_pre_lockdown() {
        let p = Population::build(&small_cfg());
        let visitors: Vec<&Student> = p.students.iter().filter(|s| s.visitor).collect();
        assert!(!visitors.is_empty());
        for v in visitors {
            let dep = v.departs.expect("visitors always depart");
            assert!(dep.0 < 47, "visitor on campus after the stay-at-home order");
            assert!(dep.0 >= v.arrives.0);
            assert!(dep.0 - v.arrives.0 <= 7, "visit too long");
            assert!(!v.on_campus(Day(dep.0 + 1)));
            assert!(!v.on_campus(Day(v.arrives.0.saturating_sub(1))) || v.arrives.0 == 0);
            assert!((1..=2).contains(&v.devices.len()));
        }
    }

    #[test]
    fn population_is_deterministic() {
        let cfg = small_cfg();
        let a = Population::build(&cfg);
        let b = Population::build(&cfg);
        assert_eq!(a.students.len(), b.students.len());
        assert_eq!(a.devices.len(), b.devices.len());
        for (x, y) in a.devices.iter().zip(&b.devices) {
            assert_eq!(x.mac, y.mac);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.id, y.id);
        }
    }

    #[test]
    fn population_counts_scale() {
        let cfg = small_cfg();
        let p = Population::build(&cfg);
        let residents = p.students.iter().filter(|s| !s.visitor).count();
        assert_eq!(residents, 650);
        // Visitors are ~30% of the resident count.
        let visitors = p.students.iter().filter(|s| s.visitor).count();
        assert_eq!(visitors, 195);
        // ~2.7 devices per resident on average.
        let resident_devices = p.devices.iter().filter(|d| !p.owner_of(d).visitor).count();
        let per_student = resident_devices as f64 / residents as f64;
        assert!((2.0..3.6).contains(&per_student), "{per_student}");
    }

    #[test]
    fn stayers_match_configured_rates_roughly() {
        let cfg = SimConfig {
            scale: 0.5,
            ..Default::default()
        };
        let p = Population::build(&cfg);
        let residents = p.students.iter().filter(|s| !s.visitor).count();
        let stayers = p.students.iter().filter(|s| s.stays()).count();
        let frac = stayers as f64 / residents as f64;
        // Blended stay rate ≈ 0.75*0.14 + 0.25*0.18 = 0.15.
        assert!((0.12..0.19).contains(&frac), "stay fraction {frac}");
        // International over-representation among stayers.
        let intl_stayers = p
            .students
            .iter()
            .filter(|s| s.stays() && s.subpop == SubPop::International)
            .count();
        let intl_frac = intl_stayers as f64 / stayers as f64;
        assert!(
            intl_frac > DEFAULT_INTL_FRACTION,
            "intl stayer fraction {intl_frac} should exceed enrollment {DEFAULT_INTL_FRACTION}"
        );
    }

    #[test]
    fn departure_days_fall_in_march_window() {
        let cfg = small_cfg();
        let p = Population::build(&cfg);
        for s in p.students.iter().filter(|s| !s.visitor) {
            if let Some(d) = s.departs {
                assert!(
                    (36..=52).contains(&d.0),
                    "departure {} outside exodus window",
                    d.0
                );
                assert!(!s.on_campus(Day(d.0 + 1)));
                assert!(s.on_campus(d));
            }
        }
    }

    #[test]
    fn counterfactual_has_no_departures_or_new_switches() {
        let cfg = Scenario::counterfactual_of(&small_cfg());
        let p = Population::build(&cfg);
        // Residents all stay; visitors remain short-stay guests in 2019
        // too (their windows are pandemic-independent by construction).
        assert!(p.students.iter().filter(|s| !s.visitor).all(|s| s.stays()));
        assert!(p.devices.iter().all(|d| d.acquired.is_none()));
    }

    #[test]
    fn counterfactual_population_is_bit_identical() {
        // The RNG draw sequence must not depend on realized outcomes:
        // the twin realizes the same students, devices, and MACs.
        let cfg = small_cfg();
        let a = Population::build(&cfg);
        let b = Population::build(&Scenario::counterfactual_of(&cfg));
        assert_eq!(a.students.len(), b.students.len());
        assert_eq!(a.devices.len(), b.devices.len());
        for (x, y) in a.devices.iter().zip(&b.devices) {
            assert_eq!(x.mac, y.mac);
            assert_eq!(x.kind, y.kind);
            assert_eq!(x.volume_factor.to_bits(), y.volume_factor.to_bits());
        }
        for (x, y) in a.students.iter().zip(&b.students) {
            assert_eq!(x.subpop, y.subpop);
            assert_eq!(x.leisure_factor.to_bits(), y.leisure_factor.to_bits());
        }
    }

    #[test]
    fn multi_wave_scenario_departures_and_returns() {
        let mut cfg = SimConfig {
            scale: 0.5,
            ..Default::default()
        };
        cfg.scenario = Scenario::builtin("staggered-reopening").unwrap();
        let p = Population::build(&cfg);
        let mut first_wave = 0usize;
        let mut second_wave = 0usize;
        let mut returned = 0usize;
        for s in p.students.iter().filter(|s| !s.visitor) {
            match s.departs {
                None => assert_eq!(s.returns, None),
                Some(d) if (36..=52).contains(&d.0) => {
                    first_wave += 1;
                    if let Some(r) = s.returns {
                        assert_eq!(r.0, 75, "first wave reopens on day 75");
                        assert!(!s.on_campus(Day(60)));
                        assert!(s.on_campus(Day(80)));
                        returned += 1;
                    }
                }
                Some(d) => {
                    assert!((100..=110).contains(&d.0), "unexpected wave day {}", d.0);
                    second_wave += 1;
                    assert_eq!(s.returns, None, "second wave has no reopening");
                }
            }
        }
        assert!(first_wave > 0 && second_wave > 0, "both waves populated");
        // fraction = 0.7 / 0.3: the first wave dominates.
        assert!(first_wave > second_wave);
        // return_fraction = 0.55 of the first wave comes back.
        assert!(returned > 0);
        let frac = returned as f64 / first_wave as f64;
        assert!((0.4..0.7).contains(&frac), "return fraction {frac}");
        // Campus occupancy rebounds at the reopening, then drops again
        // after the second wave empties it.
        let on = |d: u16| {
            p.students
                .iter()
                .filter(|s| !s.visitor && s.on_campus(Day(d)))
                .count()
        };
        assert!(on(80) > on(74), "reopening should raise occupancy");
        assert!(on(120) < on(99), "second wave should lower occupancy");
    }

    #[test]
    fn scenario_population_overrides_replace_config_mix() {
        let mut cfg = SimConfig {
            scale: 0.5,
            ..Default::default()
        };
        cfg.scenario = Scenario::builtin("favale-elearning").unwrap();
        let p = Population::build(&cfg);
        let residents: Vec<&Student> = p.students.iter().filter(|s| !s.visitor).collect();
        let intl = residents
            .iter()
            .filter(|s| s.subpop == SubPop::International)
            .count();
        let frac = intl as f64 / residents.len() as f64;
        // The scenario pins intl_fraction at 0.08, far below the
        // default 0.25.
        assert!((0.05..0.12).contains(&frac), "intl fraction {frac}");
    }

    #[test]
    fn macs_are_unique() {
        let p = Population::build(&small_cfg());
        let mut macs: Vec<MacAddr> = p.devices.iter().map(|d| d.mac).collect();
        macs.sort();
        macs.dedup();
        assert_eq!(macs.len(), p.devices.len());
    }

    #[test]
    fn randomized_macs_have_local_bit() {
        let p = Population::build(&small_cfg());
        for d in &p.devices {
            if d.randomized_mac {
                assert!(d.mac.is_locally_administered(), "{}", d.mac);
            }
        }
    }

    #[test]
    fn acquired_switches_only_on_stayers_in_april_may() {
        let p = Population::build(&SimConfig {
            scale: 0.5,
            ..Default::default()
        });
        let acquired: Vec<&Device> = p.devices.iter().filter(|d| d.acquired.is_some()).collect();
        assert!(!acquired.is_empty(), "expected some lock-down Switch buys");
        for d in &acquired {
            assert_eq!(d.kind, TrueKind::Switch);
            assert!(p.owner_of(d).stays());
            let day = d.acquired.unwrap();
            assert!(day.0 >= 60, "acquired day {}", day.0);
            assert!(!p.device_present(d, Day(day.0 - 1)));
            assert!(p.device_present(d, day));
        }
    }

    #[test]
    fn post_shutdown_devices_belong_to_stayers() {
        let p = Population::build(&small_cfg());
        for d in p.post_shutdown_devices() {
            assert!(p.owner_of(d).stays());
        }
    }

    #[test]
    fn device_presence_follows_owner() {
        let p = Population::build(&small_cfg());
        let leaver_dev = p
            .devices
            .iter()
            .find(|d| !p.owner_of(d).stays() && d.acquired.is_none())
            .expect("some leaver device");
        let dep = p.owner_of(leaver_dev).departs.unwrap();
        assert!(p.device_present(leaver_dev, Day(0)));
        assert!(!p.device_present(leaver_dev, Day(dep.0 + 5)));
    }
}
