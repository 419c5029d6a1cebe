//! The synthetic Internet: every hostname the campus resolves, with
//! stable server addresses placed in the geolocation atlas's hosting
//! regions.
//!
//! The directory is the single source of truth shared by the generator
//! (which samples destinations from it) and the pipeline (which resolves
//! and geolocates them through the ordinary DNS/GeoDb code paths). Apps
//! live where their real counterparts do: Zoom inside its published IP
//! ranges, TikTok partly in Asia, Nintendo in Japan, the Chinese/Korean/
//! Japanese/Indian consumer services abroad — that placement is what
//! drives the §4.2 midpoint classifier.

use appsig::App;
use dnslog::{DomainId, DomainTable};
use geoloc::{builtin_regions, Region};
use nettrace::ip::Ipv4Cidr;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// What role a service plays in workload synthesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ServiceKind {
    /// A measured application.
    App(App),
    /// Generic US-hosted web service (news, streaming, search, campus).
    BackgroundUs,
    /// Foreign-hosted consumer service.
    BackgroundForeign,
    /// IoT manufacturer backend.
    IotBackend,
}

/// A resolvable service.
#[derive(Debug, Clone)]
pub struct Service {
    /// Interned hostname.
    pub domain: DomainId,
    /// Server addresses (all inside the hosting region's prefix).
    pub ips: Vec<Ipv4Addr>,
    /// Role.
    pub kind: ServiceKind,
    /// Hosting region name (diagnostics).
    pub region: &'static str,
}

/// Dense service identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ServiceId(pub u32);

/// The frozen directory.
#[derive(Debug)]
pub struct ServiceDirectory {
    table: DomainTable,
    services: Vec<Service>,
    by_app: HashMap<App, Vec<ServiceId>>,
    background_us: Vec<ServiceId>,
    background_foreign: Vec<ServiceId>,
    iot_backends: Vec<ServiceId>,
}

/// Number of synthetic US background sites beyond the named ones.
pub const SYNTH_US_SITES: usize = 300;
/// Number of synthetic foreign background sites.
pub const SYNTH_FOREIGN_SITES: usize = 120;

impl ServiceDirectory {
    /// Build the world. Deterministic (placement is index-based).
    pub fn build() -> ServiceDirectory {
        let regions: HashMap<&'static str, Region> =
            builtin_regions().into_iter().map(|r| (r.name, r)).collect();
        let mut table = DomainTable::new();
        let mut services = Vec::new();
        let mut by_app: HashMap<App, Vec<ServiceId>> = HashMap::new();
        let mut background_us = Vec::new();
        let mut background_foreign = Vec::new();
        let mut iot_backends = Vec::new();

        let mut ip_cursor: HashMap<&'static str, u32> = HashMap::new();
        let alloc_ips = |region: &Region, n: u32, cursor: &mut HashMap<&'static str, u32>| {
            let c = cursor.entry(region.name).or_insert(1024);
            let ips: Vec<Ipv4Addr> = (0..n).map(|k| region.prefix.nth(*c + k)).collect();
            *c += n;
            ips
        };
        let alloc_in_range = |range: Ipv4Cidr, base: u32, n: u32| -> Vec<Ipv4Addr> {
            (0..n).map(|k| range.nth(base + k)).collect()
        };

        let push = |table: &mut DomainTable,
                    services: &mut Vec<Service>,
                    hostname: &str,
                    ips: Vec<Ipv4Addr>,
                    kind: ServiceKind,
                    region: &'static str|
         -> ServiceId {
            // Builtin hostnames are valid by construction; if one ever is
            // not, interning a stable placeholder keeps directory
            // construction total instead of panicking.
            let domain = table.intern_str(hostname).unwrap_or_else(|_| {
                debug_assert!(false, "builtin hostname {hostname:?} failed to validate");
                table.intern(dnslog::DomainName::invalid_placeholder())
            });
            let id = ServiceId(services.len() as u32);
            services.push(Service {
                domain,
                ips,
                kind,
                region,
            });
            id
        };

        // Measured applications.
        for app in App::ALL {
            let region_names: &[&str] = match app {
                App::Zoom => &["us-east"], // placed inside Zoom's IP ranges below
                App::Facebook | App::Instagram => &["us-east", "us-west"],
                App::TikTok => &["us-west", "sg"],
                // Steam delivers downloads from regional (US) edges for
                // US clients; placing content in Europe would distort the
                // §4.2 midpoints of heavy players.
                App::Steam => &["us-west", "us-central", "us-east"],
                App::SwitchGameplay => &["jp-tokyo", "us-west"],
                App::SwitchServices => &["jp-tokyo", "us-east"],
                App::Cdn => &["cdn-global"],
            };
            for (i, hostname) in appsig::builtin::hostnames(app).iter().enumerate() {
                let (ips, region_name) = if app == App::Zoom {
                    // Zoom hosts inside its published ranges; the last
                    // hostname uses the *historical* range so the Wayback
                    // stage of the signature is exercised.
                    let ranges = appsig::builtin::zoom_current_ranges();
                    let hist = appsig::builtin::zoom_historical_ranges();
                    let range = if i == appsig::builtin::hostnames(app).len() - 1 {
                        hist[0]
                    } else {
                        ranges[i % ranges.len()]
                    };
                    (alloc_in_range(range, 64 + 8 * i as u32, 6), "us-east")
                } else {
                    let rname = region_names[i % region_names.len()];
                    let region = &regions[rname];
                    (alloc_ips(region, 4, &mut ip_cursor), region.name)
                };
                let id = push(
                    &mut table,
                    &mut services,
                    hostname,
                    ips,
                    ServiceKind::App(app),
                    region_name,
                );
                by_app.entry(app).or_default().push(id);
            }
        }

        // IoT backends.
        for (i, hostname) in devclass::iot::iot_hostnames().iter().enumerate() {
            let rname = ["us-east", "us-west"][i % 2];
            let region = &regions[rname];
            let ips = alloc_ips(region, 2, &mut ip_cursor);
            let id = push(
                &mut table,
                &mut services,
                hostname,
                ips,
                ServiceKind::IotBackend,
                region.name,
            );
            iot_backends.push(id);
        }

        // Named background services.
        for (i, hostname) in appsig::builtin::background_hostnames().iter().enumerate() {
            let rname = ["us-west", "us-east", "us-central"][i % 3];
            let region = &regions[rname];
            let ips = alloc_ips(region, 4, &mut ip_cursor);
            let id = push(
                &mut table,
                &mut services,
                hostname,
                ips,
                ServiceKind::BackgroundUs,
                region.name,
            );
            background_us.push(id);
        }
        for (i, hostname) in appsig::builtin::foreign_hostnames().iter().enumerate() {
            let rname = foreign_region_for(hostname);
            let region = &regions[rname];
            let ips = alloc_ips(region, 3, &mut ip_cursor);
            let id = push(
                &mut table,
                &mut services,
                hostname,
                ips,
                ServiceKind::BackgroundForeign,
                region.name,
            );
            let _ = i;
            background_foreign.push(id);
        }

        // Synthetic long-tail sites (give the distinct-sites statistic a
        // population to grow into).
        for i in 0..SYNTH_US_SITES {
            let hostname = format!("www.site{i:04}.com");
            let rname = ["us-west", "us-east", "us-central"][i % 3];
            let region = &regions[rname];
            let ips = alloc_ips(region, 2, &mut ip_cursor);
            let id = push(
                &mut table,
                &mut services,
                &hostname,
                ips,
                ServiceKind::BackgroundUs,
                region.name,
            );
            background_us.push(id);
        }
        for i in 0..SYNTH_FOREIGN_SITES {
            let (suffix, rname) = match i % 4 {
                0 => ("com.cn", "cn-east"),
                1 => ("com.cn", "cn-north"),
                2 => ("co.kr", "kr-seoul"),
                _ => ("co.in", "in-mumbai"),
            };
            let hostname = format!("www.abroad{i:04}.{suffix}");
            let region = &regions[rname];
            let ips = alloc_ips(region, 2, &mut ip_cursor);
            let id = push(
                &mut table,
                &mut services,
                &hostname,
                ips,
                ServiceKind::BackgroundForeign,
                region.name,
            );
            background_foreign.push(id);
        }

        ServiceDirectory {
            table,
            services,
            by_app,
            background_us,
            background_foreign,
            iot_backends,
        }
    }

    /// The frozen domain table (shared with the pipeline).
    pub fn table(&self) -> &DomainTable {
        &self.table
    }

    /// A service by id.
    pub fn service(&self, id: ServiceId) -> &Service {
        &self.services[id.0 as usize]
    }

    /// All services of a measured application.
    pub fn app_services(&self, app: App) -> &[ServiceId] {
        self.by_app.get(&app).map_or(&[], Vec::as_slice)
    }

    /// US background services (named + synthetic).
    pub fn background_us(&self) -> &[ServiceId] {
        &self.background_us
    }

    /// Foreign background services (named + synthetic).
    pub fn background_foreign(&self) -> &[ServiceId] {
        &self.background_foreign
    }

    /// IoT manufacturer backends.
    pub fn iot_backends(&self) -> &[ServiceId] {
        &self.iot_backends
    }

    /// Total service count.
    pub fn len(&self) -> usize {
        self.services.len()
    }

    /// Is the directory empty? (Never, after `build`.)
    pub fn is_empty(&self) -> bool {
        self.services.is_empty()
    }

    /// Pick one of a service's addresses deterministically by `salt`.
    pub fn pick_ip(&self, id: ServiceId, salt: u64) -> Ipv4Addr {
        let s = self.service(id);
        s.ips[(salt % s.ips.len() as u64) as usize]
    }
}

fn foreign_region_for(hostname: &str) -> &'static str {
    if hostname.ends_with(".com.cn") {
        "cn-east"
    } else if hostname.ends_with(".co.kr") {
        "kr-seoul"
    } else if hostname.ends_with(".co.jp") {
        "jp-tokyo"
    } else if hostname.ends_with(".co.in") {
        "in-mumbai"
    } else {
        "de-frankfurt"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use geoloc::{builtin_geodb, CountryCode};

    #[test]
    fn directory_builds_and_is_nonempty() {
        let d = ServiceDirectory::build();
        assert!(d.len() > 400, "{}", d.len());
        assert!(!d.is_empty());
        for app in App::ALL {
            assert!(!d.app_services(app).is_empty(), "{app}");
        }
        assert!(!d.iot_backends().is_empty());
        assert!(d.background_us().len() > SYNTH_US_SITES);
        assert!(d.background_foreign().len() > SYNTH_FOREIGN_SITES);
    }

    #[test]
    fn every_service_geolocates_consistently() {
        let d = ServiceDirectory::build();
        let db = builtin_geodb();
        for i in 0..d.len() {
            let s = d.service(ServiceId(i as u32));
            for ip in &s.ips {
                let entry = db
                    .lookup(*ip)
                    .unwrap_or_else(|| panic!("unlocatable ip {ip} for service {i}"));
                let _ = entry;
            }
        }
    }

    #[test]
    fn zoom_ips_match_zoom_signature() {
        let d = ServiceDirectory::build();
        let sigs = appsig::study_signatures();
        for &sid in d.app_services(App::Zoom) {
            for ip in &d.service(sid).ips {
                assert_eq!(sigs.classify_ip(*ip), Some(App::Zoom), "{ip}");
            }
        }
    }

    #[test]
    fn foreign_services_are_abroad_us_background_domestic() {
        let d = ServiceDirectory::build();
        let db = builtin_geodb();
        for &sid in d.background_foreign() {
            let s = d.service(sid);
            let c = db.lookup(s.ips[0]).unwrap().country;
            assert_ne!(c, CountryCode::US, "{:?}", s.region);
        }
        for &sid in d.background_us() {
            let s = d.service(sid);
            let c = db.lookup(s.ips[0]).unwrap().country;
            assert_eq!(c, CountryCode::US);
        }
    }

    #[test]
    fn app_hostnames_classify_via_signatures() {
        let d = ServiceDirectory::build();
        let sigs = appsig::study_signatures();
        for app in App::ALL {
            for &sid in d.app_services(app) {
                let name = d.table().name(d.service(sid).domain);
                assert_eq!(sigs.classify_domain(name), Some(app), "{name}");
            }
        }
    }

    #[test]
    fn synthetic_sites_have_distinct_registered_domains() {
        let d = ServiceDirectory::build();
        use std::collections::HashSet;
        let mut regs = HashSet::new();
        for &sid in d.background_us() {
            let name = d.table().name(d.service(sid).domain);
            regs.insert(name.registered_domain().to_owned());
        }
        assert!(regs.len() > SYNTH_US_SITES, "{}", regs.len());
    }

    #[test]
    fn pick_ip_is_stable_and_in_service() {
        let d = ServiceDirectory::build();
        let sid = d.app_services(App::Steam)[0];
        let a = d.pick_ip(sid, 99);
        let b = d.pick_ip(sid, 99);
        assert_eq!(a, b);
        assert!(d.service(sid).ips.contains(&a));
    }

    #[test]
    fn no_duplicate_ips_across_services() {
        let d = ServiceDirectory::build();
        use std::collections::HashSet;
        let mut seen: HashSet<Ipv4Addr> = HashSet::new();
        for i in 0..d.len() {
            for ip in &d.service(ServiceId(i as u32)).ips {
                assert!(seen.insert(*ip), "duplicate ip {ip}");
            }
        }
    }

    /// The generator copies a service's whole rrset into each DNS query
    /// it emits; that copy stays off the heap only while every rrset
    /// fits a query's inline answer set.
    #[test]
    fn every_rrset_fits_an_inline_answer_set() {
        let d = ServiceDirectory::build();
        for i in 0..d.len() {
            let s = d.service(ServiceId(i as u32));
            assert!(
                (1..=dnslog::INLINE_ANSWERS).contains(&s.ips.len()),
                "{} has {} addresses, inline capacity {}",
                d.table().name(s.domain),
                s.ips.len(),
                dnslog::INLINE_ANSWERS
            );
        }
    }
}
