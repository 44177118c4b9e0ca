package experiments

import (
	"fmt"
	"sort"

	"hangdoctor/internal/android/app"
	"hangdoctor/internal/core"
	"hangdoctor/internal/experiments/pool"
)

// DeviceGenerality tests the paper's §3.3.1 claim that the filter's events
// and thresholds, designed on the LG V10, "are generally good also for
// other platforms": the same Hang Doctor configuration runs on all three
// devices the paper verified (LG V10, Nexus 5, Galaxy S3) and must find the
// same validation bugs.
type DeviceGenerality struct {
	Table TextTable
	// FoundPerDevice maps device name -> set of validation bug IDs found.
	FoundPerDevice map[string]map[string]bool
	// CommonBugs is the count found on every device.
	CommonBugs int
	// UnionBugs is the count found on at least one device.
	UnionBugs int
}

// Render implements Result.
func (d *DeviceGenerality) Render() string { return d.Table.Render() }

// deviceRoster are the three phones of the paper's generality check.
func deviceRoster() []app.Device {
	return []app.Device{app.LGV10(), app.Nexus5(), app.GalaxyS3()}
}

// RunDeviceGenerality runs the unmodified default filter on each device
// over the validation apps.
func RunDeviceGenerality(ctx *Context) (*DeviceGenerality, error) {
	out := &DeviceGenerality{
		FoundPerDevice: map[string]map[string]bool{},
		Table: TextTable{
			Title:  "Filter generality across devices (unchanged thresholds, validation bugs found)",
			Header: []string{"Device", "Cores", "PMU regs", "Bugs found", "of"},
		},
	}
	// Validation apps = apps owning offline-missed bugs, in sorted order:
	// per-app seeds derive from the position in this list, so the order
	// must be fixed (ranging over the set here used to make the run
	// nondeterministic).
	appSet := map[string]bool{}
	totalBugs := 0
	for _, b := range ctx.Corpus.Table5Bugs() {
		if ctx.BaselineMissedOffline[b.ID] {
			appSet[b.App.Name] = true
			totalBugs++
		}
	}
	appNames := make([]string, 0, len(appSet))
	for name := range appSet {
		appNames = append(appNames, name)
	}
	sort.Strings(appNames)
	devices := deviceRoster()
	// One unit per (device, app) pair; each returns the validation bugs
	// found, merged below per device in roster × sorted-app order.
	nApps := len(appNames)
	units, err := pool.Map(ctx.Workers(), len(devices)*nApps, func(k int) (map[string]bool, error) {
		dev := devices[k/nApps]
		i := k % nApps
		a := ctx.Corpus.MustApp(appNames[i])
		d := core.New(core.Config{})
		// Same per-app trace and seed on every device: only the device
		// model differs.
		if _, err := runOn(ctx, a, dev, uint64(5000+(i+1)*7), d); err != nil {
			return nil, err
		}
		found := map[string]bool{}
		for id := range matchDetections(a, d.Detections()) {
			if ctx.BaselineMissedOffline[id] {
				found[id] = true
			}
		}
		return found, nil
	})
	if err != nil {
		return nil, err
	}
	union := map[string]bool{}
	var intersection map[string]bool
	for di, dev := range devices {
		found := map[string]bool{}
		for i := 0; i < nApps; i++ {
			for id := range units[di*nApps+i] {
				found[id] = true
			}
		}
		out.FoundPerDevice[dev.Name] = found
		for id := range found {
			union[id] = true
		}
		if intersection == nil {
			intersection = map[string]bool{}
			for id := range found {
				intersection[id] = true
			}
		} else {
			for id := range intersection {
				if !found[id] {
					delete(intersection, id)
				}
			}
		}
		out.Table.Add(dev.Name, itoa(dev.Cores), itoa(dev.Registers),
			itoa(len(found)), itoa(totalBugs))
	}
	out.CommonBugs = len(intersection)
	out.UnionBugs = len(union)
	out.Table.Notes = append(out.Table.Notes,
		fmt.Sprintf("found on every device: %d; on at least one: %d of %d", out.CommonBugs, out.UnionBugs, totalBugs),
		"paper §3.3.1: the selected thresholds and events are generally good also for other platforms")
	return out, nil
}
