//! Virtual packet tagging (paper §3.2.4).
//!
//! Based on the *average* received signal strength from each antenna at each
//! client, the MIDAS AP orders its antennas by preference for that client and
//! virtually tags the client's packets with the best `tag_width` antennas
//! (two, for the paper's medium client densities).  A packet is then eligible
//! for a MU-MIMO transmission only if at least one of its tagged antennas is
//! available, which simultaneously (i) steers transmissions onto strong links
//! and (ii) avoids serving a client whose nearby antenna senses a busy medium
//! — the hidden-terminal protection argument of §3.2.4.

/// Antenna-preference-based packet tags for all clients of one AP.
///
/// A client's tags are the first `tag_width` entries of its preference
/// order, so the table stores only the preferences, flattened row-major:
/// rebuilding it in place as clients move reuses one buffer.
#[derive(Debug, Clone, PartialEq)]
pub struct TagTable {
    /// `preferences[c * num_antennas..][..num_antennas]` = antenna indices
    /// of client `c`, strongest first.
    preferences: Vec<usize>,
    num_antennas: usize,
    /// How many antennas each client's packets are tagged with.
    tag_width: usize,
}

impl TagTable {
    /// Builds the tag table from per-client mean RSSI values.
    ///
    /// `rssi_dbm[c][a]` is the average RSSI of antenna `a` at client `c`;
    /// every row covers the same antennas.  `tag_width` antennas are tagged
    /// per client (clamped to the antenna count); the paper uses 2.
    pub fn from_rssi(rssi_dbm: &[Vec<f64>], tag_width: usize) -> Self {
        assert!(tag_width >= 1, "tag width must be at least 1");
        let num_antennas = rssi_dbm.first().map_or(0, Vec::len);
        assert!(
            rssi_dbm.iter().all(|row| row.len() == num_antennas),
            "every client row must cover the same antennas"
        );
        let mut table = TagTable {
            preferences: Vec::with_capacity(rssi_dbm.len() * num_antennas),
            num_antennas,
            tag_width,
        };
        table.rebuild(&rssi_dbm.concat(), num_antennas);
        table
    }

    /// Rebuilds the table in place from a flat row-major RSSI buffer —
    /// `rssi_dbm[c * num_antennas + a]` is the average RSSI of antenna `a`
    /// at client `c` — keeping the tag width.  Equal to a fresh
    /// [`from_rssi`](Self::from_rssi) over the same values; the preference
    /// buffer is reused, so a rebuild that does not outgrow the table's
    /// high-water mark allocates nothing.
    pub fn rebuild(&mut self, rssi_dbm: &[f64], num_antennas: usize) {
        assert!(
            rssi_dbm.is_empty()
                || (num_antennas > 0 && rssi_dbm.len().is_multiple_of(num_antennas)),
            "RSSI buffer is not a whole number of client rows"
        );
        self.num_antennas = num_antennas;
        self.preferences.clear();
        for row in rssi_dbm.chunks_exact(num_antennas.max(1)) {
            let start = self.preferences.len();
            self.preferences.extend(0..num_antennas);
            self.preferences[start..].sort_by(|&a, &b| row[b].partial_cmp(&row[a]).unwrap());
        }
    }

    /// Number of clients covered by the table.
    pub fn num_clients(&self) -> usize {
        self.preferences
            .len()
            .checked_div(self.num_antennas)
            .unwrap_or(0)
    }

    /// The configured tag width.
    pub fn tag_width(&self) -> usize {
        self.tag_width
    }

    /// Antennas tagged for `client`, strongest first.
    pub fn tags_of(&self, client: usize) -> &[usize] {
        &self.preference_of(client)[..self.tag_width.min(self.num_antennas)]
    }

    /// Full antenna preference order for `client`, strongest first.
    pub fn preference_of(&self, client: usize) -> &[usize] {
        &self.preferences[client * self.num_antennas..(client + 1) * self.num_antennas]
    }

    /// Whether `client`'s packets may ride on `antenna`.
    pub fn is_tagged(&self, client: usize, antenna: usize) -> bool {
        self.tags_of(client).contains(&antenna)
    }

    /// Whether a packet for `client` is eligible given the set of available
    /// antennas: at least one tagged antenna must be available (§3.2.4).
    pub fn eligible(&self, client: usize, available_antennas: &[usize]) -> bool {
        self.tags_of(client)
            .iter()
            .any(|a| available_antennas.contains(a))
    }

    /// Clients (from `clients`) that are eligible for the available antennas.
    pub fn filter_clients(&self, clients: &[usize], available_antennas: &[usize]) -> Vec<usize> {
        clients
            .iter()
            .copied()
            .filter(|&c| self.eligible(c, available_antennas))
            .collect()
    }

    /// Clients tagged to a specific antenna (used by per-antenna client selection).
    pub fn clients_tagged_to(&self, antenna: usize) -> Vec<usize> {
        (0..self.num_clients())
            .filter(|&c| self.is_tagged(c, antenna))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 4 clients x 4 antennas; client c is closest to antenna c.
    fn rssi_fixture() -> Vec<Vec<f64>> {
        vec![
            vec![-40.0, -70.0, -75.0, -60.0],
            vec![-72.0, -42.0, -61.0, -78.0],
            vec![-80.0, -65.0, -45.0, -70.0],
            vec![-55.0, -75.0, -68.0, -41.0],
        ]
    }

    #[test]
    fn tags_pick_the_strongest_antennas() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        assert_eq!(t.tags_of(0), &[0, 3]);
        assert_eq!(t.tags_of(1), &[1, 2]);
        assert_eq!(t.tags_of(2), &[2, 1]);
        assert_eq!(t.tags_of(3), &[3, 0]);
        assert_eq!(t.tag_width(), 2);
        assert_eq!(t.num_clients(), 4);
    }

    #[test]
    fn preference_is_a_full_ordering() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        assert_eq!(t.preference_of(0), &[0, 3, 1, 2]);
        assert_eq!(t.preference_of(2), &[2, 1, 3, 0]);
    }

    #[test]
    fn eligibility_requires_a_tagged_antenna_to_be_available() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        // Antennas 2 and 3 busy -> only antennas 0, 1 available.
        let available = vec![0, 1];
        assert!(t.eligible(0, &available)); // tagged to 0
        assert!(t.eligible(1, &available)); // tagged to 1
                                            // client 2 is tagged to [2, 1]; antenna 1 is available so it *is* eligible.
        assert!(t.eligible(2, &available));
        // client 3 tagged to [3, 0]; antenna 0 available.
        assert!(t.eligible(3, &available));
        // With only antenna 2 available, clients 0, 3 (tagged 0/3) are filtered out.
        assert_eq!(t.filter_clients(&[0, 1, 2, 3], &[2]), vec![1, 2]);
    }

    #[test]
    fn paper_figure6_scenario_clients_of_busy_antennas_are_filtered() {
        // Figure 6 of the paper: antennas A3, A4 are busy; clients whose both
        // tagged antennas are among the busy ones are not considered.
        // Build 6 clients where clients 5 and 6 (indices 4, 5) are tagged only
        // to antennas 2 and 3.
        let rssi = vec![
            vec![-40.0, -60.0, -80.0, -85.0],
            vec![-42.0, -58.0, -79.0, -84.0],
            vec![-60.0, -41.0, -82.0, -83.0],
            vec![-61.0, -43.0, -81.0, -86.0],
            vec![-80.0, -82.0, -44.0, -55.0],
            vec![-81.0, -83.0, -56.0, -45.0],
        ];
        let t = TagTable::from_rssi(&rssi, 2);
        let available = vec![0, 1]; // antennas 2, 3 busy
        let eligible = t.filter_clients(&[0, 1, 2, 3, 4, 5], &available);
        assert_eq!(eligible, vec![0, 1, 2, 3]);
    }

    #[test]
    fn tagging_all_antennas_makes_everyone_always_eligible() {
        let t = TagTable::from_rssi(&rssi_fixture(), 4);
        for c in 0..4 {
            assert_eq!(t.tags_of(c).len(), 4);
            assert!(t.eligible(c, &[1]));
        }
    }

    #[test]
    fn clients_tagged_to_inverts_the_mapping() {
        let t = TagTable::from_rssi(&rssi_fixture(), 2);
        assert_eq!(t.clients_tagged_to(0), vec![0, 3]);
        assert_eq!(t.clients_tagged_to(2), vec![1, 2]);
    }

    #[test]
    fn rebuild_in_place_equals_a_fresh_table() {
        let mut t = TagTable::from_rssi(&rssi_fixture(), 2);
        // Shrink to two clients, then grow back to the full fixture.
        let two = vec![
            vec![-50.0, -40.0, -45.0, -60.0],
            vec![-41.0, -41.0, -70.0, -42.0],
        ];
        t.rebuild(&two.concat(), 4);
        assert_eq!(t, TagTable::from_rssi(&two, 2));
        assert_eq!(t.tags_of(0), &[1, 2]);
        assert_eq!(t.tags_of(1), &[0, 1], "RSSI ties keep antenna order");
        t.rebuild(&rssi_fixture().concat(), 4);
        assert_eq!(t, TagTable::from_rssi(&rssi_fixture(), 2));
    }

    #[test]
    fn tag_width_is_clamped_to_antenna_count() {
        let t = TagTable::from_rssi(&rssi_fixture(), 10);
        assert_eq!(t.tags_of(0).len(), 4);
    }
}
