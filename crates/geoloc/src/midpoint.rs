//! Weighted geographic midpoints and the US border test behind the
//! international-student split.
//!
//! §4.2 of the paper: "for each device, we calculate the geographic
//! midpoint of the destination of each of that device's connections
//! during the month of February. We weight each connection by its number
//! of bytes and then translate this weighted midpoint into geographic
//! coordinates; if a user's midpoint falls outside the borders of the
//! United States, we classify them as an international student."
//!
//! The midpoint is the standard great-circle centroid: convert each
//! destination to a 3-D unit vector, average with byte weights, convert
//! back. [`MidpointAccumulator::subpop`] is the rule that turns it into
//! a sub-population. The study applies them in `analysis`: the collector
//! adds each February flow's destination to its device's accumulator,
//! skipping CDN destinations, and the study summary labels each
//! post-shutdown device by its accumulator's `subpop`.

/// The two sub-populations the paper contrasts throughout §4–5.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SubPop {
    /// Presumed-domestic student (midpoint inside the US).
    Domestic,
    /// Presumed-international student (midpoint outside the US).
    International,
}

impl SubPop {
    /// Both sub-populations, domestic first: the order of the paper's
    /// legends and of every per-sub-population array.
    pub const ALL: [SubPop; 2] = [SubPop::Domestic, SubPop::International];

    /// Position in [`SubPop::ALL`].
    pub fn index(self) -> usize {
        self as usize
    }

    /// Label used in figure legends.
    pub fn label(self) -> &'static str {
        match self {
            SubPop::Domestic => "Domestic",
            SubPop::International => "International",
        }
    }
}

/// Simplified outline of the contiguous United States, as (lon, lat)
/// vertices. Coarse, but it follows the Canadian border through the Great
/// Lakes and the Rio Grande, so nearby foreign metros (Toronto, Vancouver,
/// Tijuana) land correctly outside.
const CONUS_POLYGON: &[(f64, f64)] = &[
    (-124.7, 48.4), // NW Washington coast
    (-95.2, 49.0),  // 49th parallel to Minnesota
    (-88.4, 48.3),  // western Lake Superior
    (-82.4, 45.3),  // Lake Huron
    (-82.7, 41.7),  // western Lake Erie
    (-78.9, 42.9),  // Buffalo
    (-76.8, 43.6),  // southern Lake Ontario
    (-74.7, 45.0),  // St. Lawrence
    (-71.5, 45.0),  // northern New England
    (-67.8, 47.1),  // northern Maine
    (-66.9, 44.8),  // eastern Maine coast
    (-70.0, 41.5),  // Cape Cod
    (-74.0, 40.5),  // New York
    (-75.5, 35.2),  // Cape Hatteras
    (-80.0, 32.0),  // Georgia coast
    (-80.0, 25.0),  // Miami
    (-81.5, 24.5),  // Florida Keys
    (-83.0, 29.0),  // Gulf coast of Florida
    (-89.5, 29.0),  // New Orleans
    (-97.1, 25.9),  // Brownsville
    (-99.5, 27.5),  // Rio Grande
    (-101.4, 29.8), // Rio Grande
    (-104.9, 29.3), // Big Bend
    (-106.5, 31.8), // El Paso
    (-111.0, 31.3), // southern Arizona
    (-114.7, 32.5), // Yuma
    (-117.1, 32.5), // San Diego
    (-120.6, 34.6), // central California coast
    (-124.4, 40.4), // northern California coast
];

/// Ray-casting point-in-polygon test.
fn point_in_polygon(lon: f64, lat: f64, poly: &[(f64, f64)]) -> bool {
    let mut inside = false;
    let n = poly.len();
    let mut j = n - 1;
    for i in 0..n {
        let (xi, yi) = poly[i];
        let (xj, yj) = poly[j];
        if ((yi > lat) != (yj > lat)) && (lon < (xj - xi) * (lat - yi) / (yj - yi) + xi) {
            inside = !inside;
        }
        j = i;
    }
    inside
}

/// Is (`lat`, `lon`) inside the United States?
///
/// Uses the simplified CONUS polygon plus bounding boxes for Alaska and
/// Hawaii (no foreign metro in the atlas lies near either box).
pub fn in_united_states(lat: f64, lon: f64) -> bool {
    let alaska = (51.0..=71.5).contains(&lat) && (-170.0..=-129.0).contains(&lon);
    let hawaii = (18.5..=22.5).contains(&lat) && (-161.0..=-154.0).contains(&lon);
    alaska || hawaii || point_in_polygon(lon, lat, CONUS_POLYGON)
}

/// Streaming weighted centroid on the unit sphere.
#[derive(Debug, Clone, Copy, Default)]
pub struct MidpointAccumulator {
    x: f64,
    y: f64,
    z: f64,
    weight: f64,
}

impl MidpointAccumulator {
    /// Add an observation at (`lat`, `lon`) with `weight` (bytes).
    pub fn add(&mut self, lat: f64, lon: f64, weight: f64) {
        if weight <= 0.0 {
            return;
        }
        let (lat_r, lon_r) = (lat.to_radians(), lon.to_radians());
        self.x += weight * lat_r.cos() * lon_r.cos();
        self.y += weight * lat_r.cos() * lon_r.sin();
        self.z += weight * lat_r.sin();
        self.weight += weight;
    }

    /// Merge another accumulator (parallel reduction).
    pub fn merge(&mut self, other: MidpointAccumulator) {
        self.x += other.x;
        self.y += other.y;
        self.z += other.z;
        self.weight += other.weight;
    }

    /// The weighted midpoint as (lat, lon), or `None` with no
    /// observations (or perfectly antipodal cancellation).
    pub fn midpoint(&self) -> Option<(f64, f64)> {
        if self.weight <= 0.0 {
            return None;
        }
        let (x, y, z) = (
            self.x / self.weight,
            self.y / self.weight,
            self.z / self.weight,
        );
        let hyp = (x * x + y * y).sqrt();
        if hyp < 1e-12 && z.abs() < 1e-12 {
            return None;
        }
        Some((z.atan2(hyp).to_degrees(), y.atan2(x).to_degrees()))
    }

    /// §4.2's rule: domestic when the midpoint lies inside the United
    /// States, international outside it, `None` without a midpoint.
    pub fn subpop(&self) -> Option<SubPop> {
        let (lat, lon) = self.midpoint()?;
        Some(if in_united_states(lat, lon) {
            SubPop::Domestic
        } else {
            SubPop::International
        })
    }

    /// Total accumulated weight.
    pub fn total_weight(&self) -> f64 {
        self.weight
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn us_boxes() {
        assert!(in_united_states(37.77, -122.42)); // San Francisco
        assert!(in_united_states(40.71, -74.0)); // New York
        assert!(in_united_states(61.2, -149.9)); // Anchorage
        assert!(in_united_states(21.3, -157.8)); // Honolulu
        assert!(!in_united_states(31.23, 121.47)); // Shanghai
        assert!(!in_united_states(51.51, -0.13)); // London
        assert!(!in_united_states(19.43, -99.13)); // Mexico City
        assert!(!in_united_states(43.65, -79.38)); // Toronto: north of the lakes border
        assert!(!in_united_states(49.28, -123.12)); // Vancouver
        assert!(in_united_states(47.61, -122.33)); // Seattle
        assert!(in_united_states(42.36, -71.06)); // Boston
        assert!(in_united_states(25.76, -80.19)); // Miami
        assert!(in_united_states(29.76, -95.37)); // Houston
        assert!(in_united_states(32.72, -117.16)); // San Diego (the campus!)
        assert!(!in_united_states(31.87, -116.60)); // Ensenada, Mexico
    }

    #[test]
    fn midpoint_of_single_point_is_that_point() {
        let mut acc = MidpointAccumulator::default();
        acc.add(37.77, -122.42, 100.0);
        let (lat, lon) = acc.midpoint().unwrap();
        assert!((lat - 37.77).abs() < 1e-9);
        assert!((lon + 122.42).abs() < 1e-9);
    }

    /// Angular distance in degrees between two (lat, lon) points.
    fn angular_distance(a: (f64, f64), b: (f64, f64)) -> f64 {
        let (la, lo) = (a.0.to_radians(), a.1.to_radians());
        let (lb, lob) = (b.0.to_radians(), b.1.to_radians());
        let cos = la.sin() * lb.sin() + la.cos() * lb.cos() * (lo - lob).cos();
        cos.clamp(-1.0, 1.0).acos().to_degrees()
    }

    #[test]
    fn midpoint_weighting_pulls_toward_heavy_side() {
        let omaha = (41.26, -95.94);
        let shanghai = (31.23, 121.47);
        let mut acc = MidpointAccumulator::default();
        acc.add(omaha.0, omaha.1, 900.0);
        acc.add(shanghai.0, shanghai.1, 100.0);
        let mid = acc.midpoint().unwrap();
        assert!(angular_distance(mid, omaha) < angular_distance(mid, shanghai));

        // With overwhelming weight the midpoint stays within a couple of
        // degrees of the heavy point.
        let mut acc = MidpointAccumulator::default();
        acc.add(omaha.0, omaha.1, 9_900.0);
        acc.add(shanghai.0, shanghai.1, 100.0);
        let mid = acc.midpoint().unwrap();
        assert!(angular_distance(mid, omaha) < 2.0, "midpoint {mid:?}");
        assert!(in_united_states(mid.0, mid.1));
    }

    #[test]
    fn coastal_heavy_mix_can_drift_offshore() {
        // Documents the conservatism the paper notes in §4.2: a midpoint
        // is a geometric construct, and even a 9:1 US-coastal mix is
        // dragged off the San Francisco coastline by trans-Pacific bytes.
        // (The synthetic domestic behaviour profile therefore spreads US
        // traffic across east/central/west regions, as real US-hosted
        // services are.)
        let mut acc = MidpointAccumulator::default();
        acc.add(37.77, -122.42, 900.0); // San Francisco
        acc.add(31.23, 121.47, 100.0); // Shanghai
        let (lat, lon) = acc.midpoint().unwrap();
        assert!(!in_united_states(lat, lon));
    }

    #[test]
    fn empty_and_zero_weight_yield_none() {
        let acc = MidpointAccumulator::default();
        assert!(acc.midpoint().is_none());
        assert_eq!(acc.subpop(), None);
        let mut acc = MidpointAccumulator::default();
        acc.add(10.0, 10.0, 0.0);
        assert!(acc.midpoint().is_none());
    }

    #[test]
    fn subpop_follows_the_border() {
        let at = |lat, lon| {
            let mut acc = MidpointAccumulator::default();
            acc.add(lat, lon, 1.0);
            acc.subpop()
        };
        assert_eq!(at(41.26, -95.94), Some(SubPop::Domestic)); // Omaha
        assert_eq!(at(43.65, -79.38), Some(SubPop::International)); // Toronto
        assert_eq!(SubPop::ALL.map(SubPop::index), [0, 1]);
    }

    #[test]
    fn merge_equals_sequential() {
        let mut a = MidpointAccumulator::default();
        let mut b = MidpointAccumulator::default();
        let mut both = MidpointAccumulator::default();
        a.add(37.77, -122.42, 10.0);
        b.add(31.23, 121.47, 20.0);
        both.add(37.77, -122.42, 10.0);
        both.add(31.23, 121.47, 20.0);
        a.merge(b);
        let (la, lo) = a.midpoint().unwrap();
        let (lb, lob) = both.midpoint().unwrap();
        assert!((la - lb).abs() < 1e-12);
        assert!((lo - lob).abs() < 1e-12);
    }
}
