package experiments

import (
	"fmt"
	"strings"
)

// ParseInject parses the -inject spec: comma-separated cell faults
//
//	bench/key=mode          mode: panic | error | stall
//
// Unknown modes are errors — a typo must not silently skip the fault drill
// it was meant to run.
func ParseInject(s string) (map[string]string, error) {
	cells := map[string]string{}
	for _, part := range strings.Split(s, ",") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		target, mode, ok := strings.Cut(part, "=")
		if !ok || !strings.Contains(target, "/") {
			return nil, fmt.Errorf("-inject %q: want bench/key=mode", part)
		}
		switch mode {
		case "panic", "error", "stall":
		default:
			return nil, fmt.Errorf("-inject %q: mode must be panic, error or stall", part)
		}
		cells[target] = mode
	}
	if len(cells) == 0 {
		return nil, fmt.Errorf("-inject %q: no injections parsed", s)
	}
	return cells, nil
}
