"""Laboratory for measuring and mitigating the center-position bias of CNNs.

Submodules:
    tensor_core  -- padded-frame tensor ops, tapes, Adam, gradient checking
    unet         -- small U-Net builder, training step, checkpoints
    data         -- placement-controlled synthetic segmentation datasets
    coco_audit   -- object-position heatmaps from detection annotations
    augment      -- periodic-shift and edge-drop mitigation transforms
    saliency     -- gradient saliency and saliency-shift maps
    harness      -- seeded regional-bias experiments and artifact export
    config       -- the one dict codec of every config record
    cli          -- command-line entry point
"""

__version__ = "0.1.0"
