package classify

import (
	"encoding/json"
	"fmt"
	"io"

	"harmony/internal/kmeans"
	"harmony/internal/trace"
)

// The paper's deployment (§VIII) characterizes the workload offline and
// uses the result online; Save/Load give the characterization a stable
// serialized form so the two phases can run in different processes.

type classDTO struct {
	ID           int                 `json:"id"`
	Group        trace.PriorityGroup `json:"group"`
	CPU          float64             `json:"cpu"`
	Mem          float64             `json:"mem"`
	CPUStd       float64             `json:"cpuStd"`
	MemStd       float64             `json:"memStd"`
	Count        int                 `json:"count"`
	CPUQuantiles [4]float64          `json:"cpuQuantiles"`
	MemQuantiles [4]float64          `json:"memQuantiles"`
	Sub          []SubClass          `json:"sub"`
	LogCentroid  []float64           `json:"logCentroid"`
}

type characterizationDTO struct {
	Version int        `json:"version"`
	Classes []classDTO `json:"classes"`
}

const persistVersion = 1

// Save serializes the characterization as JSON.
func Save(w io.Writer, ch *Characterization) error {
	dto := characterizationDTO{Version: persistVersion}
	for i := range ch.Classes {
		c := &ch.Classes[i]
		dto.Classes = append(dto.Classes, classDTO{
			ID:           c.ID,
			Group:        c.Group,
			CPU:          c.CPU,
			Mem:          c.Mem,
			CPUStd:       c.CPUStd,
			MemStd:       c.MemStd,
			Count:        c.Count,
			CPUQuantiles: c.CPUQuantiles,
			MemQuantiles: c.MemQuantiles,
			Sub:          c.Sub,
			LogCentroid:  c.logCentroid,
		})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if err := enc.Encode(dto); err != nil {
		return fmt.Errorf("classify: save: %w", err)
	}
	return nil
}

// Load parses a characterization previously produced by Save.
func Load(r io.Reader) (*Characterization, error) {
	var dto characterizationDTO
	if err := json.NewDecoder(r).Decode(&dto); err != nil {
		return nil, fmt.Errorf("classify: load: %w", err)
	}
	if dto.Version != persistVersion {
		return nil, fmt.Errorf("classify: load: unsupported version %d", dto.Version)
	}
	if len(dto.Classes) == 0 {
		return nil, ErrNoTasks
	}
	ch := &Characterization{}
	for i, d := range dto.Classes {
		if d.ID != i {
			return nil, fmt.Errorf("classify: load: class ids not dense at %d", i)
		}
		if d.Group < trace.Gratis || d.Group > trace.Production {
			return nil, fmt.Errorf("classify: load: class %d has invalid group", i)
		}
		if len(d.Sub) == 0 {
			return nil, fmt.Errorf("classify: load: class %d has no sub-classes", i)
		}
		if len(d.LogCentroid) != 2 {
			return nil, fmt.Errorf("classify: load: class %d centroid dimension %d", i, len(d.LogCentroid))
		}
		if err := d.sizable(); err != nil {
			return nil, fmt.Errorf("classify: load: class %d %w", i, err)
		}
		ch.Classes = append(ch.Classes, Class{
			ID:           d.ID,
			Group:        d.Group,
			CPU:          d.CPU,
			Mem:          d.Mem,
			CPUStd:       d.CPUStd,
			MemStd:       d.MemStd,
			Count:        d.Count,
			CPUQuantiles: d.CPUQuantiles,
			MemQuantiles: d.MemQuantiles,
			Sub:          d.Sub,
			logCentroid:  kmeans.Point(d.LogCentroid),
		})
		ch.byGroup[d.Group.Index()] = append(ch.byGroup[d.Group.Index()], d.ID)
	}
	return ch, nil
}

// sizable reports the first field of d that the provisioning pipeline
// cannot size: container sizing (Eq. 3) needs a demand in (0,1] and
// non-negative spreads, and the queueing model a positive mean duration
// and a non-negative squared coefficient of variation. JSON holds no NaN
// or infinity, so a decoded value fails a test only by its sign or size.
func (d *classDTO) sizable() error {
	for _, f := range []struct {
		name string
		v    float64
		ok   bool
	}{
		{"cpu", d.CPU, d.CPU > 0 && d.CPU <= 1},
		{"mem", d.Mem, d.Mem > 0 && d.Mem <= 1},
		{"cpuStd", d.CPUStd, d.CPUStd >= 0},
		{"memStd", d.MemStd, d.MemStd >= 0},
	} {
		if !f.ok {
			return fmt.Errorf("%s %v is out of range", f.name, f.v)
		}
	}
	if d.Count < 0 {
		return fmt.Errorf("count %d is negative", d.Count)
	}
	for s, sub := range d.Sub {
		switch {
		case sub.MeanDuration <= 0:
			return fmt.Errorf("sub-class %d MeanDuration %v is not positive", s, sub.MeanDuration)
		case sub.SqCV < 0:
			return fmt.Errorf("sub-class %d SqCV %v is negative", s, sub.SqCV)
		case sub.Count < 0:
			return fmt.Errorf("sub-class %d Count %d is negative", s, sub.Count)
		}
	}
	return nil
}
