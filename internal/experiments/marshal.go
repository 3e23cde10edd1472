package experiments

import (
	"encoding/json"
	"fmt"
)

func marshal(v any) ([]byte, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return nil, fmt.Errorf("experiments: encoding: %w", err)
	}
	return data, nil
}

func unmarshal(data []byte, v any) error {
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("experiments: decoding: %w", err)
	}
	return nil
}
