package netsim

import "time"

// Built-in profiles model the five CCSs and the vantage points of the
// paper's studies. Names follow the paper: three US clouds (dropbox,
// onedrive, gdrive) and two China clouds (baidupcs, dbank). Absolute
// rates are calibrated so the relative shapes of the paper's figures
// hold: large spatial disparity (some clouds ~60× apart), per-account
// throttling far below the client link (so cross-cloud parallelism
// pays), weak up/down correlation, and China clouds unusable from
// most non-China locations.

// Cloud profile names.
const (
	Dropbox  = "dropbox"
	OneDrive = "onedrive"
	GDrive   = "gdrive"
	BaiduPCS = "baidupcs"
	DBank    = "dbank"
)

// FiveClouds returns profiles for the paper's five CCSs.
func FiveClouds() []CloudProfile {
	return []CloudProfile{
		{
			Name:   Dropbox,
			UpMbps: 4, DownMbps: 12, PerConnMbps: 2.0,
			BaseFailure: 0.010, FailurePerMB: 0.0015,
			APILatency: 400 * time.Millisecond,
			Sigma:      0.55, FadeProb: 0.08,
		},
		{
			Name:   OneDrive,
			UpMbps: 3.5, DownMbps: 10, PerConnMbps: 2.5,
			BaseFailure: 0.012, FailurePerMB: 0.0018,
			APILatency: 600 * time.Millisecond,
			Sigma:      0.50, FadeProb: 0.07,
		},
		{
			Name:   GDrive,
			UpMbps: 5, DownMbps: 14, PerConnMbps: 2.2,
			BaseFailure: 0.008, FailurePerMB: 0.0012,
			APILatency: 350 * time.Millisecond,
			Sigma:      0.40, FadeProb: 0.05,
		},
		{
			Name:   BaiduPCS,
			UpMbps: 2.5, DownMbps: 8, PerConnMbps: 1.5,
			BaseFailure: 0.040, FailurePerMB: 0.0030,
			APILatency: 1000 * time.Millisecond,
			Sigma:      0.70, FadeProb: 0.10,
		},
		{
			Name:   DBank,
			UpMbps: 1.5, DownMbps: 6, PerConnMbps: 1.2,
			BaseFailure: 0.050, FailurePerMB: 0.0040,
			APILatency: 1200 * time.Millisecond,
			Sigma:      0.90, FadeProb: 0.14,
		},
	}
}

// usLoc builds a location with typical US/EU connectivity to the five
// clouds; the fine per-cloud factors shape the spatial diversity.
func loc(name string, up, down float64, factors map[string]float64, failureBoost float64) LocationProfile {
	return LocationProfile{
		Name:         name,
		UplinkMbps:   up,
		DownlinkMbps: down,
		CloudFactor:  factors,
		FailureBoost: failureBoost,
	}
}

// EC2Locations returns the seven EC2 vantage points of the paper's
// evaluation (§7): Virginia, Oregon, São Paulo, Ireland, Singapore,
// Tokyo, Sydney. The client downlink is capped at 40 Mbit/s, matching
// the paper's rented VMs (§7.2), which is why UniDrive's download
// improvement is smaller than its upload improvement.
func EC2Locations() []LocationProfile {
	const dl = 40 // paper: downlink capped at 40 Mbps on rented VMs
	return []LocationProfile{
		loc("virginia", 100, dl, map[string]float64{
			Dropbox: 1.2, OneDrive: 1.0, GDrive: 1.1, BaiduPCS: 0.30, DBank: 0.20}, 1),
		loc("oregon", 100, dl, map[string]float64{
			Dropbox: 1.0, OneDrive: 1.1, GDrive: 1.2, BaiduPCS: 0.32, DBank: 0.22}, 1),
		loc("saopaulo", 100, dl, map[string]float64{
			Dropbox: 0.45, OneDrive: 0.55, GDrive: 0.70, BaiduPCS: 0.12, DBank: 0.10}, 1.5),
		loc("ireland", 100, dl, map[string]float64{
			Dropbox: 0.75, OneDrive: 0.95, GDrive: 1.0, BaiduPCS: 0.20, DBank: 0.15}, 1.2),
		loc("singapore", 100, dl, map[string]float64{
			Dropbox: 0.40, OneDrive: 0.70, GDrive: 0.80, BaiduPCS: 0.50, DBank: 0.40}, 1.5),
		loc("tokyo", 100, dl, map[string]float64{
			Dropbox: 0.50, OneDrive: 0.80, GDrive: 0.85, BaiduPCS: 0.55, DBank: 0.45}, 1.3),
		loc("sydney", 100, dl, map[string]float64{
			Dropbox: 0.35, OneDrive: 0.60, GDrive: 0.75, BaiduPCS: 0.25, DBank: 0.18}, 1.6),
	}
}

// EC2Location returns the named EC2 location profile, or panics for
// an unknown name (experiment configuration error).
func EC2Location(name string) LocationProfile {
	for _, l := range EC2Locations() {
		if l.Name == name {
			return l
		}
	}
	panic("netsim: unknown EC2 location " + name)
}

// PlanetLabLocations returns the 13 vantage points of the paper's
// measurement study (§3.2), spread over 10 countries and 5
// continents. China locations see US clouds poorly (and with elevated
// failure rates) while reaching the China clouds well — reversing the
// ranking, as the paper observed between Princeton and Beijing.
func PlanetLabLocations() []LocationProfile {
	return []LocationProfile{
		loc("princeton", 60, 80, map[string]float64{
			Dropbox: 1.3, OneDrive: 0.65, GDrive: 1.1, BaiduPCS: 0.10, DBank: 0.07}, 1),
		loc("losangeles", 50, 70, map[string]float64{
			Dropbox: 0.45, OneDrive: 0.90, GDrive: 1.0, BaiduPCS: 0.20, DBank: 0.12}, 1),
		loc("toronto", 50, 70, map[string]float64{
			Dropbox: 1.1, OneDrive: 0.85, GDrive: 1.0, BaiduPCS: 0.10, DBank: 0.08}, 1),
		loc("saopaulo-pl", 30, 50, map[string]float64{
			Dropbox: 0.40, OneDrive: 0.50, GDrive: 0.65, BaiduPCS: 0.05, DBank: 0.04}, 1.5),
		loc("london", 60, 80, map[string]float64{
			Dropbox: 0.80, OneDrive: 1.0, GDrive: 1.05, BaiduPCS: 0.08, DBank: 0.06}, 1.2),
		loc("paris", 60, 80, map[string]float64{
			Dropbox: 0.75, OneDrive: 0.95, GDrive: 1.0, BaiduPCS: 0.08, DBank: 0.06}, 1.2),
		loc("moscow", 40, 60, map[string]float64{
			Dropbox: 0.50, OneDrive: 0.60, GDrive: 0.55, BaiduPCS: 0.15, DBank: 0.12}, 1.8),
		loc("beijing", 40, 60, map[string]float64{
			Dropbox: 0.05, OneDrive: 0.30, GDrive: 0.02, BaiduPCS: 1.6, DBank: 1.3}, 4),
		loc("shanghai", 40, 60, map[string]float64{
			Dropbox: 0.04, OneDrive: 0.25, GDrive: 0.02, BaiduPCS: 1.5, DBank: 1.4}, 4),
		loc("tokyo-pl", 50, 70, map[string]float64{
			Dropbox: 0.55, OneDrive: 0.80, GDrive: 0.85, BaiduPCS: 0.45, DBank: 0.35}, 1.3),
		loc("seoul", 50, 70, map[string]float64{
			Dropbox: 0.50, OneDrive: 0.75, GDrive: 0.80, BaiduPCS: 0.50, DBank: 0.40}, 1.3),
		loc("singapore-pl", 50, 70, map[string]float64{
			Dropbox: 0.40, OneDrive: 0.70, GDrive: 0.75, BaiduPCS: 0.35, DBank: 0.25}, 1.5),
		loc("sydney-pl", 40, 60, map[string]float64{
			Dropbox: 0.35, OneDrive: 0.55, GDrive: 0.70, BaiduPCS: 0.10, DBank: 0.07}, 1.6),
	}
}

// PlanetLabLocation returns the named PlanetLab profile, or panics.
func PlanetLabLocation(name string) LocationProfile {
	for _, l := range PlanetLabLocations() {
		if l.Name == name {
			return l
		}
	}
	panic("netsim: unknown PlanetLab location " + name)
}

// ResidentialLocation, UniversityLocation and CompanyLocation model
// the mixed user base of the real-world trial (§7.3).
func ResidentialLocation(name string) LocationProfile {
	return loc(name, 10, 50, map[string]float64{
		Dropbox: 0.8, OneDrive: 0.8, GDrive: 0.9, BaiduPCS: 0.3, DBank: 0.2}, 1.5)
}

// UniversityLocation models a well-connected campus user.
func UniversityLocation(name string) LocationProfile {
	return loc(name, 80, 120, map[string]float64{
		Dropbox: 1.1, OneDrive: 1.0, GDrive: 1.1, BaiduPCS: 0.3, DBank: 0.2}, 1)
}

// CompanyLocation models an office user behind a corporate link.
func CompanyLocation(name string) LocationProfile {
	return loc(name, 40, 80, map[string]float64{
		Dropbox: 1.0, OneDrive: 1.0, GDrive: 1.0, BaiduPCS: 0.25, DBank: 0.15}, 1.2)
}
